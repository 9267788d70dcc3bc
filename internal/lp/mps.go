// MPS file I/O for the lp package.
//
// MPS is the venerable fixed-column interchange format for linear
// programs (and the format of the netlib LP test set); most solvers
// also accept the whitespace-delimited "free" variant. This reader
// handles both by tokenising on whitespace, which covers every fixed-
// format file whose names contain no embedded blanks — true of the
// netlib set and of everything this repo ships — and all free-format
// files. Names with embedded spaces are the one documented casualty.
//
// Supported sections: NAME, OBJSENSE (MIN/MAX, free-format extension),
// ROWS (N/L/G/E), COLUMNS, RHS, RANGES, BOUNDS (LO/UP/FX/FR/MI/PL),
// ENDATA. Integer markers and integer bound types (BV/LI/UI) are
// rejected: this is an LP toolkit.
//
// # Bound lowering
//
// Model variables are implicitly x >= 0 with no upper bounds, so the
// reader lowers general MPS bounds at load time:
//
//   - LO l (finite lower bound): substitute x = l + x' with x' >= 0 and
//     fold the shift into every row's right-hand side and into the
//     objective constant.
//   - FR / MI (no lower bound): split x = x+ - x- into two non-negative
//     columns with negated coefficients.
//   - UP u / FX / RANGES: the residual upper bound becomes one extra
//     <= row over the lowered column(s); an FX variable gets the
//     degenerate row x' <= 0, which the simplex solves like any other
//     row.
//
// The MPS value returned by ReadMPS records the inverse transform:
// Values, Value and Objective report in the original variable space,
// and RowDual maps original constraint rows to lowered model rows.
package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MPS is a linear program loaded from an MPS file: the lowered Model
// ready to Solve, plus the bookkeeping needed to report solutions in
// the file's original variable space.
type MPS struct {
	// Name is the problem name from the NAME record (may be empty).
	Name string
	// Model is the lowered program: every original variable shifted
	// and/or split to the package's x >= 0 form, with residual upper
	// bounds appended as extra <= rows after the original constraints.
	Model *Model

	varNames []string
	rowNames []string
	prim     []int     // original row index -> lowered model row index
	xp       []int     // per original var: lowered column of the (shifted) positive part
	xm       []int     // per original var: lowered column of the negative part, or -1
	lo       []float64 // per original var: lower-bound shift (0 for split vars)
	objShift float64   // sum c_j * lo_j folded out of the lowered objective
	objConst float64   // constant from an RHS entry on the objective row
}

// NumVars returns the number of variables in the original file (before
// bound lowering).
func (f *MPS) NumVars() int { return len(f.varNames) }

// NumRows returns the number of constraint rows in the original file
// (excluding the objective and free rows).
func (f *MPS) NumRows() int { return len(f.rowNames) }

// VarNames returns the original variable names in file order.
func (f *MPS) VarNames() []string { return append([]string(nil), f.varNames...) }

// RowNames returns the original constraint row names in file order.
func (f *MPS) RowNames() []string { return append([]string(nil), f.rowNames...) }

// Value maps a solution of f.Model back to the original space: the
// value of original variable j, undoing the load-time shift or split.
func (f *MPS) Value(sol *Solution, j int) float64 {
	v := f.lo[j] + sol.X[f.xp[j]]
	if f.xm[j] >= 0 {
		v -= sol.X[f.xm[j]]
	}
	return v
}

// Values maps a solution of f.Model back to the original variable
// space, one value per original variable in file order.
func (f *MPS) Values(sol *Solution) []float64 {
	x := make([]float64, len(f.varNames))
	for j := range x {
		x[j] = f.Value(sol, j)
	}
	return x
}

// Objective returns the objective value in the original space: the
// lowered model's objective plus the constants folded out by the
// bound shifts and by any RHS entry on the objective row.
func (f *MPS) Objective(sol *Solution) float64 {
	return sol.Objective + f.objShift + f.objConst
}

// RowDual returns the dual value of original constraint row i. A row
// that RANGES turned into a two-sided constraint reports the dual of
// its primary (lower-bound side) lowered row.
func (f *MPS) RowDual(sol *Solution, i int) float64 { return sol.Dual[f.prim[i]] }

// mpsParse is the raw file contents before lowering.
type mpsParse struct {
	name     string
	maximize bool

	rowName  []string // non-N rows, file order
	rowSense []Sense
	rowOf    map[string]int // row name -> index; objective and free rows map to -1

	objName string
	objSeen bool

	varName []string
	varOf   map[string]int
	entries [][]mpsEntry // per var: (row, coef); row == -1 is the objective

	rhs      []float64
	objRHS   float64
	rng      []float64
	hasRange []bool

	lo, up           []float64
	loSet, upEverSet []bool
}

type mpsEntry struct {
	row  int // -1 for the objective row
	coef float64
}

// ReadMPS parses an MPS file (fixed or free format) and lowers it to
// a Model. See the package comment at the top of this file for the
// supported subset and the bound-lowering rules.
func ReadMPS(r io.Reader) (*MPS, error) {
	p := &mpsParse{
		rowOf: make(map[string]int),
		varOf: make(map[string]int),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	section := ""
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" || line[0] == '*' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// Section headers start in column one; data lines are indented.
		if line[0] != ' ' && line[0] != '\t' {
			section = strings.ToUpper(fields[0])
			switch section {
			case "NAME":
				if len(fields) > 1 {
					p.name = fields[1]
				}
			case "OBJSENSE":
				// Either "OBJSENSE MAX" on one line or the value on the
				// next (indented) line.
				if len(fields) > 1 {
					if err := p.setObjSense(fields[1]); err != nil {
						return nil, lineErr(lineno, err)
					}
					section = ""
				}
			case "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS":
			case "ENDATA":
				return p.lower()
			default:
				return nil, lineErr(lineno, fmt.Errorf("unsupported section %q", fields[0]))
			}
			continue
		}
		var err error
		switch section {
		case "OBJSENSE":
			err = p.setObjSense(fields[0])
		case "ROWS":
			err = p.addRow(fields)
		case "COLUMNS":
			err = p.addColumnEntries(fields)
		case "RHS":
			err = p.addRHS(fields)
		case "RANGES":
			err = p.addRanges(fields)
		case "BOUNDS":
			err = p.addBound(fields)
		case "":
			err = fmt.Errorf("data line before any section header")
		default:
			err = fmt.Errorf("data line in unsupported section %q", section)
		}
		if err != nil {
			return nil, lineErr(lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.lower()
}

// ParseMPS is ReadMPS over an in-memory byte slice.
func ParseMPS(data []byte) (*MPS, error) { return ReadMPS(strings.NewReader(string(data))) }

func lineErr(lineno int, err error) error { return fmt.Errorf("mps: line %d: %w", lineno, err) }

func (p *mpsParse) setObjSense(tok string) error {
	switch strings.ToUpper(tok) {
	case "MAX", "MAXIMIZE":
		p.maximize = true
	case "MIN", "MINIMIZE":
		p.maximize = false
	default:
		return fmt.Errorf("unknown OBJSENSE %q", tok)
	}
	return nil
}

func (p *mpsParse) addRow(fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("ROWS line wants 2 fields, got %d", len(fields))
	}
	name := fields[1]
	if _, dup := p.rowOf[name]; dup {
		return fmt.Errorf("duplicate row %q", name)
	}
	switch strings.ToUpper(fields[0]) {
	case "N":
		// The first N row is the objective; later N rows are free rows,
		// recorded so COLUMNS/RHS entries on them parse but are dropped.
		if !p.objSeen {
			p.objSeen = true
			p.objName = name
		}
		p.rowOf[name] = -1
	case "L", "G", "E":
		var sense Sense
		switch strings.ToUpper(fields[0]) {
		case "L":
			sense = LE
		case "G":
			sense = GE
		case "E":
			sense = EQ
		}
		p.rowOf[name] = len(p.rowName)
		p.rowName = append(p.rowName, name)
		p.rowSense = append(p.rowSense, sense)
		p.rhs = append(p.rhs, 0)
		p.rng = append(p.rng, 0)
		p.hasRange = append(p.hasRange, false)
	default:
		return fmt.Errorf("unknown row type %q", fields[0])
	}
	return nil
}

func (p *mpsParse) varIndex(name string) int {
	j, ok := p.varOf[name]
	if !ok {
		j = len(p.varName)
		p.varOf[name] = j
		p.varName = append(p.varName, name)
		p.entries = append(p.entries, nil)
		p.lo = append(p.lo, 0)
		p.up = append(p.up, math.Inf(1))
		p.loSet = append(p.loSet, false)
		p.upEverSet = append(p.upEverSet, false)
	}
	return j
}

func (p *mpsParse) addColumnEntries(fields []string) error {
	if len(fields) >= 3 && strings.Trim(fields[1], "'\"") == "MARKER" {
		return fmt.Errorf("integer MARKER sections are not supported (LP only)")
	}
	if len(fields) != 3 && len(fields) != 5 {
		return fmt.Errorf("COLUMNS line wants 3 or 5 fields, got %d", len(fields))
	}
	j := p.varIndex(fields[0])
	for k := 1; k < len(fields); k += 2 {
		ri, ok := p.rowOf[fields[k]]
		if !ok {
			return fmt.Errorf("unknown row %q", fields[k])
		}
		v, err := strconv.ParseFloat(fields[k+1], 64)
		if err != nil {
			return fmt.Errorf("bad coefficient %q: %v", fields[k+1], err)
		}
		if ri == -1 && fields[k] != p.objName {
			continue // entry on a non-objective free row: dropped
		}
		p.entries[j] = append(p.entries[j], mpsEntry{row: ri, coef: v})
	}
	return nil
}

// rhsPairs strips the optional set-name token from an RHS or RANGES
// line and returns the (row, value) pairs. The set name is optional in
// the wild: a line with an even field count whose first token names a
// row is taken as nameless.
func (p *mpsParse) rhsPairs(fields []string) ([]string, error) {
	_, firstIsRow := p.rowOf[fields[0]]
	if len(fields)%2 == 0 && firstIsRow {
		return fields, nil
	}
	if len(fields)%2 == 1 {
		return fields[1:], nil
	}
	return nil, fmt.Errorf("cannot parse row/value pairs from %d fields", len(fields))
}

func (p *mpsParse) addRHS(fields []string) error {
	pairs, err := p.rhsPairs(fields)
	if err != nil {
		return err
	}
	for k := 0; k < len(pairs); k += 2 {
		v, err := strconv.ParseFloat(pairs[k+1], 64)
		if err != nil {
			return fmt.Errorf("bad RHS value %q: %v", pairs[k+1], err)
		}
		ri, ok := p.rowOf[pairs[k]]
		if !ok {
			return fmt.Errorf("unknown row %q", pairs[k])
		}
		if ri == -1 {
			if pairs[k] == p.objName {
				// RHS on the objective row: the negated objective constant.
				p.objRHS = v
			}
			continue
		}
		p.rhs[ri] = v
	}
	return nil
}

func (p *mpsParse) addRanges(fields []string) error {
	pairs, err := p.rhsPairs(fields)
	if err != nil {
		return err
	}
	for k := 0; k < len(pairs); k += 2 {
		v, err := strconv.ParseFloat(pairs[k+1], 64)
		if err != nil {
			return fmt.Errorf("bad RANGES value %q: %v", pairs[k+1], err)
		}
		ri, ok := p.rowOf[pairs[k]]
		if !ok {
			return fmt.Errorf("unknown row %q", pairs[k])
		}
		if ri == -1 {
			return fmt.Errorf("RANGES entry on objective/free row %q", pairs[k])
		}
		p.rng[ri] = v
		p.hasRange[ri] = true
	}
	return nil
}

func (p *mpsParse) addBound(fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("BOUNDS line wants at least a type and a column")
	}
	typ := strings.ToUpper(fields[0])
	needsValue := typ == "LO" || typ == "UP" || typ == "FX"
	// Layout is TYPE [SETNAME] COLUMN [VALUE]; the set name is optional
	// in the wild, so locate the column by the expected field count.
	var col, val string
	switch {
	case needsValue && len(fields) == 4:
		col, val = fields[2], fields[3]
	case needsValue && len(fields) == 3:
		col, val = fields[1], fields[2]
	case !needsValue && len(fields) == 3:
		col = fields[2]
	case !needsValue && len(fields) == 2:
		col = fields[1]
	default:
		return fmt.Errorf("cannot parse %s bound from %d fields", typ, len(fields))
	}
	j, ok := p.varOf[col]
	if !ok {
		// A bound may legally precede the column's COLUMNS entries only
		// in pathological files; require the column to exist to catch
		// typos, matching most strict readers.
		return fmt.Errorf("bound on unknown column %q", col)
	}
	var v float64
	if needsValue {
		var err error
		if v, err = strconv.ParseFloat(val, 64); err != nil {
			return fmt.Errorf("bad bound value %q: %v", val, err)
		}
	}
	switch typ {
	case "LO":
		p.lo[j] = v
		p.loSet[j] = true
	case "UP":
		p.up[j] = v
		p.upEverSet[j] = true
	case "FX":
		p.lo[j], p.up[j] = v, v
		p.loSet[j], p.upEverSet[j] = true, true
	case "FR":
		p.lo[j] = math.Inf(-1)
		p.loSet[j] = true
	case "MI":
		p.lo[j] = math.Inf(-1)
		p.loSet[j] = true
	case "PL":
		p.up[j] = math.Inf(1)
		p.upEverSet[j] = true
	case "BV", "LI", "UI":
		return fmt.Errorf("integer bound type %s is not supported (LP only)", typ)
	default:
		return fmt.Errorf("unknown bound type %q", typ)
	}
	return nil
}

// lower builds the x >= 0 Model from the parsed file: shift finite
// lower bounds, split unbounded-below variables, then emit the
// original rows (with RANGES expansion) followed by the residual
// upper-bound rows.
func (p *mpsParse) lower() (*MPS, error) {
	if !p.objSeen {
		return nil, fmt.Errorf("mps: no N (objective) row")
	}
	m := NewModel()
	if p.maximize {
		m.Maximize()
	}
	f := &MPS{
		Name:     p.name,
		Model:    m,
		varNames: append([]string(nil), p.varName...),
		rowNames: append([]string(nil), p.rowName...),
		objConst: -p.objRHS,
		xp:       make([]int, len(p.varName)),
		xm:       make([]int, len(p.varName)),
		lo:       make([]float64, len(p.varName)),
		prim:     make([]int, len(p.rowName)),
	}
	// Pass 1: create the lowered columns and collect each variable's
	// objective coefficient (needed before rows for the shift constant).
	obj := make([]float64, len(p.varName))
	for j, es := range p.entries {
		for _, e := range es {
			if e.row == -1 {
				obj[j] += e.coef
			}
		}
	}
	for j, name := range p.varName {
		split := math.IsInf(p.lo[j], -1)
		if split {
			f.lo[j] = 0
			f.xp[j] = m.AddVar(obj[j], name+"+")
			f.xm[j] = m.AddVar(-obj[j], name+"-")
			continue
		}
		f.lo[j] = p.lo[j]
		f.objShift += obj[j] * p.lo[j]
		f.xp[j] = m.AddVar(obj[j], name)
		f.xm[j] = -1
	}
	// Accumulate per-row terms and right-hand-side shifts.
	terms := make([][]Term, len(p.rowName))
	shift := make([]float64, len(p.rowName))
	for j, es := range p.entries {
		for _, e := range es {
			if e.row == -1 {
				continue
			}
			terms[e.row] = append(terms[e.row], Term{Var: f.xp[j], Coef: e.coef})
			if f.xm[j] >= 0 {
				terms[e.row] = append(terms[e.row], Term{Var: f.xm[j], Coef: -e.coef})
			}
			shift[e.row] += e.coef * f.lo[j]
		}
	}
	// Pass 2: original rows in file order, applying RANGES. The primary
	// lowered row keeps the original row's position so duals line up;
	// the second side of a ranged row is appended after all originals.
	type extraRow struct {
		sense Sense
		rhs   float64
		terms []Term
	}
	var extras []extraRow
	for i := range p.rowName {
		sense, b := p.rowSense[i], p.rhs[i]-shift[i]
		if !p.hasRange[i] {
			f.prim[i] = m.AddRow(sense, b, terms[i]...)
			continue
		}
		r := p.rng[i]
		var loB, upB float64
		switch sense {
		case LE: // [b - |r|, b]
			loB, upB = b-math.Abs(r), b
		case GE: // [b, b + |r|]
			loB, upB = b, b+math.Abs(r)
		case EQ: // r >= 0: [b, b+r]; r < 0: [b+r, b]
			if r >= 0 {
				loB, upB = b, b+r
			} else {
				loB, upB = b+r, b
			}
		}
		f.prim[i] = m.AddRow(GE, loB, terms[i]...)
		extras = append(extras, extraRow{sense: LE, rhs: upB, terms: terms[i]})
	}
	for _, e := range extras {
		m.AddRow(e.sense, e.rhs, e.terms...)
	}
	// Pass 3: residual upper bounds as singleton (or pair) <= rows.
	// An UP below the (possibly shifted) lower bound yields a negative
	// right-hand side here, which the solver reports as Infeasible —
	// the correct verdict for an empty box.
	for j := range p.varName {
		if math.IsInf(p.up[j], 1) {
			continue
		}
		if f.xm[j] >= 0 {
			m.AddRow(LE, p.up[j], Term{Var: f.xp[j], Coef: 1}, Term{Var: f.xm[j], Coef: -1})
		} else {
			m.AddRow(LE, p.up[j]-f.lo[j], Term{Var: f.xp[j], Coef: 1})
		}
	}
	return f, nil
}

// WriteMPS writes the model as an MPS file readable by ReadMPS and by
// external solvers. The output uses the fixed-format column layout
// (and is therefore also valid free format). Variables with empty or
// duplicate names are renamed X0000001-style; rows are named
// R0000001-style and the objective COST. Duplicate terms within a row
// are coalesced before writing, matching what the solver computes.
// Models written by WriteMPS always satisfy x >= 0, so no BOUNDS
// section is emitted.
func WriteMPS(w io.Writer, m *Model, name string) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "LP"
	}
	fmt.Fprintf(bw, "NAME          %s\n", name)
	if m.maximize {
		fmt.Fprintf(bw, "OBJSENSE\n    MAX\n")
	}

	// Assign unique, blank-free names.
	varName := make([]string, len(m.obj))
	seen := make(map[string]bool, len(m.obj))
	for j, n := range m.names {
		if n == "" || strings.ContainsAny(n, " \t") || seen[n] {
			n = fmt.Sprintf("X%07d", j+1)
		}
		seen[n] = true
		varName[j] = n
	}
	rowName := make([]string, len(m.rows))
	for i := range m.rows {
		rowName[i] = fmt.Sprintf("R%07d", i+1)
	}

	fmt.Fprintf(bw, "ROWS\n")
	fmt.Fprintf(bw, " N  COST\n")
	for i, r := range m.rows {
		var t byte
		switch r.sense {
		case LE:
			t = 'L'
		case GE:
			t = 'G'
		case EQ:
			t = 'E'
		}
		fmt.Fprintf(bw, " %c  %s\n", t, rowName[i])
	}

	// Gather each column's entries (objective first, then rows in
	// order), coalescing duplicate terms.
	type colEntry struct {
		row  string
		coef float64
	}
	cols := make([][]colEntry, len(m.obj))
	for j, c := range m.obj {
		if c != 0 {
			cols[j] = append(cols[j], colEntry{row: "COST", coef: c})
		}
	}
	acc := make(map[int]float64)
	for i, r := range m.rows {
		for k := range acc {
			delete(acc, k)
		}
		var order []int
		for _, t := range r.terms {
			if _, ok := acc[t.Var]; !ok {
				order = append(order, t.Var)
			}
			acc[t.Var] += t.Coef
		}
		sort.Ints(order)
		for _, j := range order {
			if c := acc[j]; c != 0 {
				cols[j] = append(cols[j], colEntry{row: rowName[i], coef: c})
			}
		}
	}
	fmt.Fprintf(bw, "COLUMNS\n")
	for j, es := range cols {
		for _, e := range es {
			fmt.Fprintf(bw, "    %-10s%-10s%.17g\n", varName[j], e.row, e.coef)
		}
	}

	fmt.Fprintf(bw, "RHS\n")
	for i, r := range m.rows {
		if r.rhs != 0 {
			fmt.Fprintf(bw, "    %-10s%-10s%.17g\n", "RHS", rowName[i], r.rhs)
		}
	}
	fmt.Fprintf(bw, "ENDATA\n")
	return bw.Flush()
}
