// Package deadapi exercises the deadapi pass over one package: an
// exported function or method that only _test.go files reference is a
// finding; a method that satisfies an interface, and a function carrying
// a reasoned //viator:api, are not.
package deadapi

import (
	"fmt"
	"io"
)

// Entry is the package's way in; its caller lives outside the package.
//
//viator:api the fixture's entry point, called from outside the module
func Entry() string {
	var c Counter
	c.Inc()
	return fmt.Sprint(c.n, helper())
}

// TestOnly has no caller but the package's tests.
func TestOnly() int { return 1 } // want `TestOnly is exported but no non-test file references it`

// Counter is a type whose Inc has a non-test caller and whose Peek has
// none.
type Counter struct{ n int }

// Inc is called from Entry.
func (c *Counter) Inc() { c.n++ }

// Peek is called only from the package's tests.
func (c *Counter) Peek() int { return c.n } // want `\(\*Counter\)\.Peek is exported but`

// Celsius satisfies fmt.Stringer, so String counts as referenced even
// though no code here calls it by name.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Recurse only calls itself, which keeps nothing alive.
func Recurse(n int) int { // want `Recurse is exported but`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Kept has no caller, but its annotation gives a reason.
//
//viator:api called by a tool outside this module
func Kept() {}

// Bare carries //viator:api with no reason: the annotation is a grammar
// error and exempts nothing.
// want:+2 `//viator:api without a reason`
//
//viator:api
func Bare() {} // want `Bare is exported but`

// helper is unexported: the pass only governs the exported surface.
func helper() int { return 2 }

// Sink satisfies io.Writer through its pointer: Write counts as
// referenced.
type Sink struct{ n int }

func (s *Sink) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}

// closer's Close is promoted into File, which satisfies io.Closer, so it
// counts as referenced too.
type closer struct{}

func (closer) Close() error { return nil }

// File embeds closer.
type File struct{ closer }

// Open hands out a File and a Sink to code outside the package.
//
//viator:api the fixture's second entry point, called from outside the module
func Open() (io.Closer, io.Writer) { return File{}, &Sink{} }
