package vm

import "sort"

// Eval compiles and immediately runs an expression with variable values —
// a convenience for tests and workload generators.
func Eval(expr string, values map[string]int64, gas int64) (int64, error) {
	vars := make(map[string]int, len(values))
	reg := 0
	// Deterministic register assignment by insertion over sorted names.
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if reg >= NumRegisters {
			return 0, &CompileError{Pos: 0, Msg: "too many variables"}
		}
		vars[n] = reg
		reg++
	}
	prog, err := Compile(expr, vars)
	if err != nil {
		return 0, err
	}
	m := NewMachine(prog, gas)
	for _, n := range names {
		m.SetReg(vars[n], values[n])
	}
	return m.Run()
}
