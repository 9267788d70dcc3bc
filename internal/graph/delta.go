package graph

import (
	"fmt"
	"math"
)

// The shared platform-mutation vocabulary. A Delta is an ordered batch
// of mutation ops — the one description of "what changed" used by
// every layer that perturbs a platform: the what-if engine's scenarios
// (internal/whatif), the serving layer's PATCH /v1/platforms/{id}
// endpoint and mutation log (internal/serve), and the incremental
// replan entry point (steady.Evaluator.Replan, internal/live). Keeping
// one vocabulary means a link failure is the same object whether it is
// a hypothetical (what-if), an observed event (PATCH) or a replan
// trigger (live), and the fingerprint/version interplay is defined in
// exactly one place.
//
// Ops split into two families:
//
//   - State ops (DeltaDropNode, DeltaRestoreNode, DeltaDisableEdge,
//     DeltaEnableEdge, DeltaSetEdgeCost, DeltaScaleEdgeCost) flip
//     masks or rescale costs. They are exactly invertible: Apply
//     records the observed prior state, so the returned undo delta
//     restores the platform bit-for-bit — same fingerprint, same
//     adjacency order (DisableEdge/EnableEdge splice deterministically).
//   - Structural ops (DeltaAddNode, DeltaAddEdge) grow the platform.
//     Nodes and edges are never physically removed (stable IDs are the
//     package's core invariant), so their undo is logical: the added
//     node is deactivated, the added edge disabled. The platform then
//     *behaves* like before, but NumNodes/NumEdges — and therefore the
//     content fingerprint — keep the growth. Callers that need exact
//     fingerprint restoration (the what-if engine) use state ops only.

// DeltaKind names one mutation op of the shared delta vocabulary.
type DeltaKind uint8

const (
	// DeltaDropNode deactivates a node and all its incident edges — a
	// node failure, or an overlay member leaving.
	DeltaDropNode DeltaKind = iota + 1
	// DeltaRestoreNode re-activates a dropped node.
	DeltaRestoreNode
	// DeltaAddNode adds a new named node (structural; see above).
	DeltaAddNode
	// DeltaAddEdge adds a new directed edge (structural).
	DeltaAddEdge
	// DeltaDisableEdge hides one directed edge — a link failure.
	DeltaDisableEdge
	// DeltaEnableEdge re-enables a disabled edge.
	DeltaEnableEdge
	// DeltaSetEdgeCost sets an edge's cost to an absolute value — a
	// measured bandwidth update.
	DeltaSetEdgeCost
	// DeltaScaleEdgeCost multiplies an edge's cost by a factor — a
	// relative degradation (factor > 1) or recovery (factor < 1).
	DeltaScaleEdgeCost
)

// String returns the kind's wire spelling (the PATCH op names).
func (k DeltaKind) String() string {
	switch k {
	case DeltaDropNode:
		return "drop_node"
	case DeltaRestoreNode:
		return "restore_node"
	case DeltaAddNode:
		return "add_node"
	case DeltaAddEdge:
		return "add_edge"
	case DeltaDisableEdge:
		return "disable_edge"
	case DeltaEnableEdge:
		return "enable_edge"
	case DeltaSetEdgeCost:
		return "set_edge_cost"
	case DeltaScaleEdgeCost:
		return "scale_edge_cost"
	}
	return fmt.Sprintf("delta-kind-%d", uint8(k))
}

// DeltaOp is one mutation. Which fields are meaningful depends on
// Kind; the constructors below set exactly the right ones.
type DeltaOp struct {
	Kind DeltaKind
	// Node is the dropped/restored node.
	Node NodeID
	// Edge is the perturbed edge ID (disable/enable/set/scale).
	Edge int
	// Cost is the absolute cost of DeltaSetEdgeCost and DeltaAddEdge,
	// or the multiplicative factor of DeltaScaleEdgeCost.
	Cost float64
	// Name is the new node's name (DeltaAddNode).
	Name string
	// From and To are the new edge's endpoints (DeltaAddEdge).
	From, To NodeID
}

// DropNodeOp deactivates node v.
func DropNodeOp(v NodeID) DeltaOp { return DeltaOp{Kind: DeltaDropNode, Node: v} }

// RestoreNodeOp re-activates node v.
func RestoreNodeOp(v NodeID) DeltaOp { return DeltaOp{Kind: DeltaRestoreNode, Node: v} }

// AddNodeOp adds a node named name.
func AddNodeOp(name string) DeltaOp { return DeltaOp{Kind: DeltaAddNode, Name: name} }

// AddEdgeOp adds a directed edge from -> to with the given cost.
func AddEdgeOp(from, to NodeID, cost float64) DeltaOp {
	return DeltaOp{Kind: DeltaAddEdge, From: from, To: to, Cost: cost}
}

// DisableEdgeOp disables edge id.
func DisableEdgeOp(id int) DeltaOp { return DeltaOp{Kind: DeltaDisableEdge, Edge: id} }

// EnableEdgeOp re-enables edge id.
func EnableEdgeOp(id int) DeltaOp { return DeltaOp{Kind: DeltaEnableEdge, Edge: id} }

// SetEdgeCostOp sets edge id's cost to the absolute value cost.
func SetEdgeCostOp(id int, cost float64) DeltaOp {
	return DeltaOp{Kind: DeltaSetEdgeCost, Edge: id, Cost: cost}
}

// ScaleEdgeCostOp multiplies edge id's cost by factor.
func ScaleEdgeCostOp(id int, factor float64) DeltaOp {
	return DeltaOp{Kind: DeltaScaleEdgeCost, Edge: id, Cost: factor}
}

// String renders the op for logs and errors.
func (op DeltaOp) String() string {
	switch op.Kind {
	case DeltaDropNode, DeltaRestoreNode:
		return fmt.Sprintf("%s(%d)", op.Kind, op.Node)
	case DeltaAddNode:
		return fmt.Sprintf("%s(%q)", op.Kind, op.Name)
	case DeltaAddEdge:
		return fmt.Sprintf("%s(%d->%d, %g)", op.Kind, op.From, op.To, op.Cost)
	case DeltaDisableEdge, DeltaEnableEdge:
		return fmt.Sprintf("%s(%d)", op.Kind, op.Edge)
	case DeltaSetEdgeCost, DeltaScaleEdgeCost:
		return fmt.Sprintf("%s(%d, %g)", op.Kind, op.Edge, op.Cost)
	}
	return op.Kind.String()
}

// Delta is an ordered batch of mutation ops, applied front to back.
// Later ops may reference nodes and edges created by earlier ops of
// the same delta (IDs are assigned densely, so the caller knows the
// ID an add op will produce).
type Delta []DeltaOp

// validateOp checks op against g's current state, returning an error
// instead of letting the graph mutators panic — deltas carry
// client-controlled input (PATCH bodies, fuzz corpora).
func (g *Graph) validateOp(op DeltaOp) error {
	checkNode := func(v NodeID) error {
		if v < 0 || int(v) >= g.NumNodes() {
			return fmt.Errorf("graph: delta %s: node %d out of range", op, v)
		}
		return nil
	}
	checkEdge := func(id int) error {
		if id < 0 || id >= g.NumEdges() {
			return fmt.Errorf("graph: delta %s: edge %d out of range", op, id)
		}
		return nil
	}
	checkCost := func(c float64) error {
		if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
			return fmt.Errorf("graph: delta %s: invalid cost %v", op, c)
		}
		return nil
	}
	switch op.Kind {
	case DeltaDropNode, DeltaRestoreNode:
		return checkNode(op.Node)
	case DeltaAddNode:
		if op.Name == "" {
			return fmt.Errorf("graph: delta %s: empty node name", op)
		}
		if _, dup := g.NodeByName(op.Name); dup {
			return fmt.Errorf("graph: delta %s: duplicate node name %q", op, op.Name)
		}
		return nil
	case DeltaAddEdge:
		if err := checkNode(op.From); err != nil {
			return err
		}
		if err := checkNode(op.To); err != nil {
			return err
		}
		if op.From == op.To {
			return fmt.Errorf("graph: delta %s: self-loop", op)
		}
		return checkCost(op.Cost)
	case DeltaDisableEdge, DeltaEnableEdge:
		return checkEdge(op.Edge)
	case DeltaSetEdgeCost:
		if err := checkEdge(op.Edge); err != nil {
			return err
		}
		return checkCost(op.Cost)
	case DeltaScaleEdgeCost:
		if err := checkEdge(op.Edge); err != nil {
			return err
		}
		if err := checkCost(op.Cost); err != nil {
			return err
		}
		// The factor and the current cost are both positive and finite,
		// but their product can still overflow.
		return checkCost(g.Edge(op.Edge).Cost * op.Cost)
	}
	return fmt.Errorf("graph: unknown delta kind %d", op.Kind)
}

// applyOp applies one validated op and returns its undo op (Kind 0
// means nothing to undo — the op was already satisfied).
func (g *Graph) applyOp(op DeltaOp) DeltaOp {
	switch op.Kind {
	case DeltaDropNode:
		if !g.Active(op.Node) {
			return DeltaOp{}
		}
		g.Deactivate(op.Node)
		return RestoreNodeOp(op.Node)
	case DeltaRestoreNode:
		if g.Active(op.Node) {
			return DeltaOp{}
		}
		g.Activate(op.Node)
		return DropNodeOp(op.Node)
	case DeltaAddNode:
		v := g.AddNode(op.Name)
		return DropNodeOp(v)
	case DeltaAddEdge:
		id := g.AddEdge(op.From, op.To, op.Cost)
		return DisableEdgeOp(id)
	case DeltaDisableEdge:
		if g.EdgeDisabled(op.Edge) {
			return DeltaOp{}
		}
		g.DisableEdge(op.Edge)
		return EnableEdgeOp(op.Edge)
	case DeltaEnableEdge:
		if !g.EdgeDisabled(op.Edge) {
			return DeltaOp{}
		}
		g.EnableEdge(op.Edge)
		return DisableEdgeOp(op.Edge)
	case DeltaSetEdgeCost:
		old := g.Edge(op.Edge).Cost
		if old == op.Cost {
			return DeltaOp{}
		}
		g.SetEdgeCost(op.Edge, op.Cost)
		return SetEdgeCostOp(op.Edge, old)
	case DeltaScaleEdgeCost:
		old := g.Edge(op.Edge).Cost
		scaled := old * op.Cost
		if scaled == old {
			return DeltaOp{}
		}
		g.SetEdgeCost(op.Edge, scaled)
		// The undo records the exact prior cost, not 1/factor: dividing
		// back is not bit-exact in floating point.
		return SetEdgeCostOp(op.Edge, old)
	}
	panic(fmt.Sprintf("graph: applyOp on unvalidated op %s", op))
}

// Apply applies the delta to g front to back and returns the undo
// delta that restores the prior state (see the package comment on
// structural ops: their undo is logical, not physical). Application is
// atomic: if any op fails validation, g is exactly as before the call.
// The applied prefix of a failed delta is rolled back through its
// undo, which restores state ops exactly; since the undo of an added
// node or edge cannot remove it, a delta with a structural op before
// its last op is first validated on a clone (Validate).
//
// The undo delta is ordered for direct application: applying it with
// Apply (or op by op, front to back) restores the prior state. Ops
// that were already satisfied (dropping an inactive node, disabling a
// disabled edge, setting a cost to its current value) apply as no-ops
// and contribute nothing to the undo.
func (d Delta) Apply(g *Graph) (undo Delta, err error) {
	if d.growsBeforeLast() {
		if err := d.Validate(g); err != nil {
			return nil, err
		}
	}
	return d.apply(g)
}

// growsBeforeLast reports whether a structural op (DeltaAddNode,
// DeltaAddEdge) precedes another op of the delta: only then can a
// failed validation find the platform already grown. State-only and
// single-op deltas need no dry run.
func (d Delta) growsBeforeLast() bool {
	for _, op := range d[:max(len(d)-1, 0)] {
		if op.Kind == DeltaAddNode || op.Kind == DeltaAddEdge {
			return true
		}
	}
	return false
}

// apply is Apply without the structural pre-check: on a validation
// failure it rolls the applied prefix back through its undo.
func (d Delta) apply(g *Graph) (undo Delta, err error) {
	for _, op := range d {
		if err := g.validateOp(op); err != nil {
			// Roll back the applied prefix; undo is already in reverse-
			// application order (see below), so apply it front to back.
			for _, u := range undo {
				g.applyOp(u)
			}
			return nil, err
		}
		if u := g.applyOp(op); u.Kind != 0 {
			// Prepend: undoing must unwind in reverse order (a delta that
			// sets one edge's cost twice must restore the original, not
			// the intermediate).
			undo = append(Delta{u}, undo...)
		}
	}
	return undo, nil
}

// Validate dry-runs the delta against g and reports the first error
// without mutating g. (Sequential semantics — later ops seeing earlier
// ops' effects — require a real application, so Validate applies to a
// clone.)
func (d Delta) Validate(g *Graph) error {
	_, err := d.apply(g.Clone())
	return err
}
