// No code: the fixture is type-checked, never linked.
