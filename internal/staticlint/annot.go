package staticlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// The annotation grammar (DESIGN.md §11):
//
//	//shalom:hotpath <class>[,<class>...]   on a function declaration
//	//shalom:asmleaf <class>[,<class>...]   on a bodyless (assembly) function
//	//shalom:allow <analyzer>               on or above an offending line
//
// An assembly function has no Go body for the hotpath proof to walk, so a
// hot path may call it only if its Go declaration carries //shalom:asmleaf,
// the explicit list of trusted leaves. The directive vouches for the named
// classes, nothing more; a leaf that takes pointers and vouches for
// noalloc must also be //go:noescape, or every buffer passed to it
// escapes to the heap.
//
// Classes name the operation families a hot path must be free of:
//
//	noalloc  heap allocation and interface boxing (make, new, append,
//	         reference literals, closures, go statements, string building,
//	         fmt, boxing conversions)
//	nolock   mutex/locking primitives and channel operations
//	noblock  calls that can park the goroutine (Sleep, Wait, channel ops,
//	         select without default)
//	notime   clock reads (time.Now, time.Since)
const (
	ClassNoAlloc = "noalloc"
	ClassNoLock  = "nolock"
	ClassNoBlock = "noblock"
	ClassNoTime  = "notime"
)

var validClasses = map[string]bool{
	ClassNoAlloc: true, ClassNoLock: true, ClassNoBlock: true, ClassNoTime: true,
}

// ClassSet is the set of classes one hotpath annotation demands.
type ClassSet map[string]bool

func (c ClassSet) String() string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// union returns c ∪ o, reusing c when possible.
func (c ClassSet) union(o ClassSet) ClassSet {
	grew := false
	for n := range o {
		if !c[n] {
			grew = true
			break
		}
	}
	if !grew {
		return c
	}
	out := ClassSet{}
	for n := range c {
		out[n] = true
	}
	for n := range o {
		out[n] = true
	}
	return out
}

func (c ClassSet) contains(o ClassSet) bool {
	for n := range o {
		if !c[n] {
			return false
		}
	}
	return true
}

// HotpathDecl is one annotated function.
type HotpathDecl struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Classes ClassSet
	// BadSpec carries the malformed-annotation message when parsing failed
	// (unknown class, empty class list); the hotpath analyzer reports it.
	BadSpec string
}

// Annotations is the per-program annotation index.
type Annotations struct {
	// allow: file → line → analyzer names suppressed on that line. A
	// standalone `//shalom:allow x` comment suppresses its own line and the
	// next, so it can sit above the statement it excuses.
	allow map[string]map[int]map[string]bool
	// hotpaths in declaration order (file, then position).
	hotpaths []HotpathDecl
	// leaves are the //shalom:asmleaf declarations, in the same order.
	leaves []HotpathDecl
	leafOf map[*types.Func]*HotpathDecl
}

// Leaves returns the //shalom:asmleaf declarations in source order.
func (a *Annotations) Leaves() []HotpathDecl { return a.leaves }

// leaf returns fn's //shalom:asmleaf declaration, or nil.
func (a *Annotations) leaf(fn *types.Func) *HotpathDecl { return a.leafOf[fn] }

// Hotpaths returns the annotated functions in source order.
func (a *Annotations) Hotpaths() []HotpathDecl { return a.hotpaths }

func (a *Annotations) allowed(analyzer string, pos token.Position) bool {
	lines := a.allow[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if lines[line][analyzer] {
			return true
		}
	}
	return false
}

func collectAnnotations(prog *Program) *Annotations {
	a := &Annotations{allow: map[string]map[int]map[string]bool{}}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//shalom:allow")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					lines := a.allow[pos.Filename]
					if lines == nil {
						lines = map[int]map[string]bool{}
						a.allow[pos.Filename] = lines
					}
					set := lines[pos.Line]
					if set == nil {
						set = map[string]bool{}
						lines[pos.Line] = set
					}
					for _, name := range strings.Fields(rest) {
						// A "--" or "—" field starts the free-text
						// justification; everything after it is prose.
						if name == "--" || name == "—" {
							break
						}
						set[name] = true
					}
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, directive := range []string{"shalom:hotpath", "shalom:asmleaf"} {
					hd, ok := parseClassDirective(pkg, fd, directive)
					if !ok {
						continue
					}
					if directive == "shalom:hotpath" {
						a.hotpaths = append(a.hotpaths, hd)
					} else {
						a.leaves = append(a.leaves, hd)
					}
				}
			}
		}
	}
	a.leafOf = map[*types.Func]*HotpathDecl{}
	for i := range a.leaves {
		if fn := a.leaves[i].Fn; fn != nil {
			a.leafOf[fn] = &a.leaves[i]
		}
	}
	return a
}

// parseClassDirective reads the first //<directive> <classes> line of fd's
// doc comment.
func parseClassDirective(pkg *Package, fd *ast.FuncDecl, directive string) (HotpathDecl, bool) {
	for _, c := range fd.Doc.List {
		spec, ok := strings.CutPrefix(c.Text, "//"+directive)
		if !ok {
			continue
		}
		hd := HotpathDecl{Decl: fd, Pkg: pkg, Classes: ClassSet{}}
		if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			hd.Fn = obj
		}
		fields := strings.FieldsFunc(spec, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		if len(fields) == 0 {
			hd.BadSpec = directive + " annotation names no classes (want noalloc,nolock,noblock,notime)"
		}
		for _, cl := range fields {
			if !validClasses[cl] {
				hd.BadSpec = directive + " names unknown class " + strconv.Quote(cl)
				continue
			}
			hd.Classes[cl] = true
		}
		return hd, true
	}
	return HotpathDecl{}, false
}
