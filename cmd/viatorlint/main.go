// Viatorlint mechanically enforces viator's determinism and
// zero-allocation contracts (see ARCHITECTURE.md, "Static analysis").
//
// Two modes share one binary:
//
// Standalone, for local runs and the CI lint job:
//
//	go run ./cmd/viatorlint ./...
//
// loads every matched package, runs the maporder/walltime/tiebreak/
// noalloc analyzers, and adds two checks a modular vet unit cannot do:
// it verifies every //viator:noalloc function against the compiler's
// escape analysis (go build -gcflags=-m), and it runs the deadapi pass,
// which reports every exported internal/ function or method that no
// non-test file of the module references (counting references from the
// whole module, whatever the patterns; //viator:api <reason> exempts a
// function whose caller is outside the module).
//
// Vet tool, for build-cached modular analysis of all packages including
// test variants:
//
//	go build -o viatorlint ./cmd/viatorlint
//	go vet -vettool=$PWD/viatorlint ./...
//
// In this mode the binary speaks the go vet driver protocol (-V=full,
// -flags, unit .cfg files).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"viator/internal/lint"
)

func main() {
	// The vet protocol must be answered before normal flag parsing:
	// go vet probes with -V=full and -flags, then invokes the tool once
	// per compilation unit with a single *.cfg argument.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" {
			if err := lint.PrintVersion(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "viatorlint:", err)
				os.Exit(1)
			}
			return
		}
	}

	fs := flag.NewFlagSet("viatorlint", flag.ExitOnError)
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (vet protocol)")
	noEscape := fs.Bool("noescape", false, "standalone mode: skip the //viator:noalloc escape-analysis verification")
	enabled := map[string]*bool{}
	for _, a := range lint.Analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable "+a.Name+" analysis")
	}
	// Legacy vet shims so forwarded standard flags don't error.
	fs.Bool("json", false, "unsupported; plain output only")
	fs.Int("c", -1, "no effect (vet compatibility)")
	fs.String("tags", "", "no effect (vet compatibility)")
	fs.Parse(os.Args[1:])

	var analyzers []*lint.Analyzer
	for _, a := range lint.Analyzers {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	if *printFlags {
		if err := lint.PrintFlags(os.Stdout, lint.Analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "viatorlint:", err)
			os.Exit(1)
		}
		return
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		lint.VetUnitMain("viatorlint", args[0], analyzers) // exits
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	// The escape verification is the dynamic half of the noalloc
	// analyzer; disabling -noalloc disables it too.
	os.Exit(standalone(args, analyzers, !*noEscape && *enabled[lint.NoAlloc.Name]))
}

func standalone(patterns []string, analyzers []*lint.Analyzer, escape bool) int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "viatorlint:", err)
		return 1
	}
	loaded, targets, err := lint.Load(dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "viatorlint:", err)
		return 1
	}
	found := 0
	for _, lp := range loaded {
		diags, err := lint.RunAnalyzers(lp, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "viatorlint:", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d.Message)
			found++
		}
	}
	diags, err := lint.DeadAPICheck(targets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "viatorlint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.Message)
		found++
	}
	if escape {
		diags, err := lint.EscapeCheck(dir, targets)
		if err != nil {
			fmt.Fprintln(os.Stderr, "viatorlint:", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "[noalloc] %s\n", d.Message)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "viatorlint: %d finding(s)\n", found)
		return 1
	}
	return 0
}
