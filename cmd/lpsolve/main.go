// Command lpsolve solves an MPS-format linear program with the repo's
// sparse revised simplex — the same engine the multicast planners use —
// and reports the solution in the file's original variable space.
//
// Usage:
//
//	lpsolve [flags] problem.mps     ("-" reads stdin)
//
//	-check        cross-validate against the dense reference simplex
//	-vars         print every variable's value
//	-duals        print every constraint row's dual value
//	-q            print only the objective value
//
// The exit code encodes the verdict so scripts can branch on it:
//
//	0  optimal
//	1  usage or parse error (bad flags, bad arguments, malformed MPS)
//	2  infeasible
//	3  unbounded
//	4  internal error (I/O failure, solver failure, -check disagreement)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/lp"
)

// Exit codes: 0 and 2/3 report the solved verdict; 1 and 4 split the
// failures by whose fault they are — 1 means the invocation or the
// input text is wrong (fix the command line or the file), 4 means the
// tool itself failed to produce a verdict (I/O, solver internals, or a
// -check cross-validation mismatch).
const (
	exitOptimal    = 0
	exitUsage      = 1
	exitInfeasible = 2
	exitUnbounded  = 3
	exitInternal   = 4
)

const exitCodeTable = `exit codes:
  0  optimal
  1  usage or parse error (bad flags, bad arguments, malformed MPS)
  2  infeasible
  3  unbounded
  4  internal error (I/O failure, solver failure, -check disagreement)
`

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpsolve: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	fs := flag.NewFlagSet("lpsolve", flag.ContinueOnError)
	check := fs.Bool("check", false, "cross-validate the solution against the dense reference simplex")
	vars := fs.Bool("vars", false, "print variable values (original variable space)")
	duals := fs.Bool("duals", false, "print constraint duals (original row space)")
	quiet := fs.Bool("q", false, "print only the objective value")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lpsolve [flags] problem.mps    (\"-\" reads stdin)")
		fs.PrintDefaults()
		fmt.Fprint(fs.Output(), exitCodeTable)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(exitOptimal)
		}
		// The flag package already printed the complaint and the usage.
		os.Exit(exitUsage)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(exitUsage)
	}

	var src io.Reader
	if name := fs.Arg(0); name == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(name)
		if err != nil {
			fail(exitInternal, "%v", err)
		}
		defer f.Close()
		src = f
	}
	mps, err := lp.ReadMPS(src)
	if err != nil {
		// Malformed input is the caller's to fix — distinct from the
		// internal failures below.
		fail(exitUsage, "%v", err)
	}

	m := mps.Model
	start := time.Now()
	sol, err := m.Solve()
	if err != nil {
		fail(exitInternal, "%v", err)
	}
	elapsed := time.Since(start)

	if *check {
		ref, err := lp.SolveDense(m)
		if err != nil {
			fail(exitInternal, "dense reference: %v", err)
		}
		if ref.Status != sol.Status {
			fail(exitInternal, "check failed: sparse %v, dense reference %v", sol.Status, ref.Status)
		}
		if sol.Status == lp.Optimal {
			diff := math.Abs(sol.Objective - ref.Objective)
			scale := math.Max(1, math.Max(math.Abs(sol.Objective), math.Abs(ref.Objective)))
			if diff > 1e-6*scale {
				fail(exitInternal, "check failed: sparse objective %v, dense reference %v", sol.Objective, ref.Objective)
			}
		}
	}

	switch {
	case *quiet && sol.Status == lp.Optimal:
		fmt.Printf("%.10g\n", mps.Objective(sol))
	case *quiet:
		fmt.Println(sol.Status)
	default:
		name := mps.Name
		if name == "" {
			name = fs.Arg(0)
		}
		fmt.Printf("problem   %s  (%d vars, %d rows as read; %d vars, %d rows lowered)\n",
			name, mps.NumVars(), mps.NumRows(), m.NumVars(), m.NumRows())
		fmt.Printf("status    %s\n", sol.Status)
		if sol.Status == lp.Optimal {
			fmt.Printf("objective %.10g\n", mps.Objective(sol))
		}
		fmt.Printf("simplex   %d iterations (%d dual) in %s\n", sol.Iterations, sol.DualIterations, elapsed.Round(time.Microsecond))
		if *check {
			fmt.Printf("check     dense reference agrees\n")
		}
	}
	if sol.Status == lp.Optimal && *vars {
		names := mps.VarNames()
		for j, v := range mps.Values(sol) {
			fmt.Printf("  %-12s %.10g\n", names[j], v)
		}
	}
	if sol.Status == lp.Optimal && *duals {
		names := mps.RowNames()
		for i, name := range names {
			fmt.Printf("  %-12s %.10g\n", name, mps.RowDual(sol, i))
		}
	}

	switch sol.Status {
	case lp.Infeasible:
		os.Exit(exitInfeasible)
	case lp.Unbounded:
		os.Exit(exitUnbounded)
	}
}
