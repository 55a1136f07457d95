// Package vlsigen generates VLSI circuit design workloads — the first of
// the three application areas whose investigation motivated PRIMA (§1,
// [HHLM87]). A netlist is a genuinely meshed structure: cells carry pins,
// pins connect to nets, and a net joins many pins of many cells (n:m), so
// traversal must work symmetrically (cell→net and net→cell).
package vlsigen

import (
	"fmt"
	"math/rand"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
)

// SchemaDDL defines cells, pins and nets with symmetric associations.
const SchemaDDL = `
CREATE ATOM_TYPE cell
  ( cell_id : IDENTIFIER,
    name    : CHAR_VAR,
    kind    : CHAR_VAR,
    pins    : SET_OF (REF_TO (pin.cell)) (1,VAR) );

CREATE ATOM_TYPE pin
  ( pin_id : IDENTIFIER,
    pos    : INTEGER,
    cell   : REF_TO (cell.pins),
    net    : REF_TO (net.pins) );

CREATE ATOM_TYPE net
  ( net_id : IDENTIFIER,
    signal : CHAR_VAR,
    pins   : SET_OF (REF_TO (pin.net)) );

DEFINE MOLECULE TYPE cell_obj FROM cell - pin;
DEFINE MOLECULE TYPE net_obj  FROM net - pin;
`

// Netlist holds generated addresses.
type Netlist struct {
	Cells []addr.LogicalAddr
	Nets  []addr.LogicalAddr
	Pins  []addr.LogicalAddr
}

// Build generates cells pins-per-cell pins each and nets wiring them
// randomly but deterministically (seeded).
func Build(e *core.Engine, cells, pinsPerCell, nets int, seed int64) (*Netlist, error) {
	sys := e.System()
	rng := rand.New(rand.NewSource(seed))
	nl := &Netlist{}

	// The nets are one atom set, and each cell with its pins another: a net
	// gets one partner update per cell that wires it.
	set := sys.NewAtomSet()
	for i := 0; i < nets; i++ {
		a, err := set.Add("net", map[string]atom.Value{
			"signal": atom.Str(fmt.Sprintf("sig%d", i)),
		})
		if err != nil {
			return nil, fmt.Errorf("vlsigen: net %d: %w", i, err)
		}
		nl.Nets = append(nl.Nets, a)
	}
	if err := sys.WriteSet(set); err != nil {
		return nil, fmt.Errorf("vlsigen: nets: %w", err)
	}
	kinds := []string{"nand", "nor", "inv", "dff", "mux"}
	for i := 0; i < cells; i++ {
		set := sys.NewAtomSet()
		c, err := set.Add("cell", map[string]atom.Value{
			"name": atom.Str(fmt.Sprintf("u%d", i)),
			"kind": atom.Str(kinds[i%len(kinds)]),
		})
		if err != nil {
			return nil, fmt.Errorf("vlsigen: cell %d: %w", i, err)
		}
		nl.Cells = append(nl.Cells, c)
		for p := 0; p < pinsPerCell; p++ {
			net := nl.Nets[rng.Intn(len(nl.Nets))]
			pin, err := set.Add("pin", map[string]atom.Value{
				"pos":  atom.Int(int64(p)),
				"cell": atom.Ref(c),
				"net":  atom.Ref(net),
			})
			if err != nil {
				return nil, fmt.Errorf("vlsigen: pin: %w", err)
			}
			nl.Pins = append(nl.Pins, pin)
		}
		if err := sys.WriteSet(set); err != nil {
			return nil, fmt.Errorf("vlsigen: cell %d: %w", i, err)
		}
	}
	return nl, nil
}
