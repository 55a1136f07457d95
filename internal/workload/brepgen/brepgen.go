// Package brepgen generates boundary-representation (BREP) workloads after
// Fig. 2.3 of the paper: solids with breps whose faces, edges and points
// form real cube topology (每 edge shared by two faces, each point by three
// faces — the n:m relationships that motivate the MAD model), plus
// recursive solid assemblies for piece_list experiments.
package brepgen

import (
	"fmt"
	"math/bits"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
)

// SchemaDDL is the Fig. 2.3 schema in MAD-DDL (HULL_DIM(3) is lowered to
// ARRAY_OF(REAL,6) per the documented substitution).
const SchemaDDL = `
CREATE ATOM_TYPE solid
  ( solid_id    : IDENTIFIER,
    solid_no    : INTEGER,
    description : CHAR_VAR,
    sub         : SET_OF (REF_TO (solid.super)),
    super       : SET_OF (REF_TO (solid.sub)),
    brep        : REF_TO (brep.solid) )
  KEYS_ARE (solid_no);

CREATE ATOM_TYPE brep
  ( brep_id : IDENTIFIER,
    brep_no : INTEGER,
    hull    : HULL_DIM(3),
    solid   : REF_TO (solid.brep),
    faces   : SET_OF (REF_TO (face.brep)) (4,VAR),
    edges   : SET_OF (REF_TO (edge.brep)) (6,VAR),
    points  : SET_OF (REF_TO (point.brep)) (4,VAR) )
  KEYS_ARE (brep_no);

CREATE ATOM_TYPE face
  ( face_id    : IDENTIFIER,
    square_dim : REAL,
    border     : SET_OF (REF_TO (edge.face)) (3,VAR),
    crosspoint : SET_OF (REF_TO (point.face)) (3,VAR),
    brep       : REF_TO (brep.faces) );

CREATE ATOM_TYPE edge
  ( edge_id  : IDENTIFIER,
    length   : REAL,
    boundary : SET_OF (REF_TO (point.line)) (2,VAR),
    face     : SET_OF (REF_TO (face.border)) (2,VAR),
    brep     : REF_TO (brep.edges) );

CREATE ATOM_TYPE point
  ( point_id  : IDENTIFIER,
    placement : RECORD
                  x_coord, y_coord, z_coord : REAL,
                END,
    line : SET_OF (REF_TO (edge.boundary)) (1,VAR),
    face : SET_OF (REF_TO (face.crosspoint)) (1,VAR),
    brep : REF_TO (brep.points) );

DEFINE MOLECULE TYPE edge_obj   FROM edge - point;
DEFINE MOLECULE TYPE face_obj   FROM face - edge_obj;
DEFINE MOLECULE TYPE brep_obj   FROM brep - face_obj;
DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (RECURSIVE);
`

// Cube atom counts.
const (
	CubeFaces  = 6
	CubeEdges  = 12
	CubePoints = 8
	// CubeAtoms is the molecule size of brep-face-edge-point for one cube
	// (1 brep + faces + edges + points).
	CubeAtoms = 1 + CubeFaces + CubeEdges + CubePoints
)

// InstallSchema executes the Fig. 2.3 DDL.
func InstallSchema(e *core.Engine) error {
	_, err := e.ExecuteScript(SchemaDDL)
	return err
}

// Cube holds the addresses of one generated cube.
type Cube struct {
	Solid  addr.LogicalAddr
	Brep   addr.LogicalAddr
	Faces  []addr.LogicalAddr
	Edges  []addr.LogicalAddr
	Points []addr.LogicalAddr
}

// BuildCube inserts one unit cube at origin offset off with the given solid
// and brep numbers, as one atom set: each of its 28 atoms is written once,
// with its back-references. Edge lengths are size; face areas size².
func BuildCube(e *core.Engine, solidNo, brepNo int, off, size float64) (*Cube, error) {
	set := e.System().NewAtomSet()
	c, err := cubeAtoms(set.Add, solidNo, brepNo, off, size)
	if err != nil {
		return nil, err
	}
	if err := e.System().WriteSet(set); err != nil {
		return nil, fmt.Errorf("brepgen: cube %d: %w", solidNo, err)
	}
	return c, nil
}

// cubeAtoms hands add the atoms of one cube in a fixed order, each
// referencing only atoms added before it, and returns their addresses.
func cubeAtoms(add func(typeName string, values map[string]atom.Value) (addr.LogicalAddr, error), solidNo, brepNo int, off, size float64) (*Cube, error) {
	c := &Cube{}

	// 8 corner points, indexed by bit pattern zyx.
	for i := 0; i < 8; i++ {
		x := off + size*float64(i&1)
		y := off + size*float64((i>>1)&1)
		z := off + size*float64((i>>2)&1)
		a, err := add("point", map[string]atom.Value{
			"placement": atom.Record(atom.Real(x), atom.Real(y), atom.Real(z)),
		})
		if err != nil {
			return nil, fmt.Errorf("brepgen: point %d: %w", i, err)
		}
		c.Points = append(c.Points, a)
	}

	// 12 edges: vertex pairs differing in exactly one bit.
	var pairs [][2]int
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if bits.OnesCount(uint(i^j)) != 1 {
				continue
			}
			a, err := add("edge", map[string]atom.Value{
				"length":   atom.Real(size),
				"boundary": atom.RefSet(c.Points[i], c.Points[j]),
			})
			if err != nil {
				return nil, fmt.Errorf("brepgen: edge %d-%d: %w", i, j, err)
			}
			pairs = append(pairs, [2]int{i, j})
			c.Edges = append(c.Edges, a)
		}
	}

	// 6 faces: for each axis and side, the 4 edges inside that plane.
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			var border []addr.LogicalAddr
			var corners []addr.LogicalAddr
			for idx, pair := range pairs {
				i, j := pair[0], pair[1]
				if (i>>axis)&1 == side && (j>>axis)&1 == side {
					border = append(border, c.Edges[idx])
				}
			}
			for i := 0; i < 8; i++ {
				if (i>>axis)&1 == side {
					corners = append(corners, c.Points[i])
				}
			}
			a, err := add("face", map[string]atom.Value{
				"square_dim": atom.Real(size * size),
				"border":     atom.RefSet(border...),
				"crosspoint": atom.RefSet(corners...),
			})
			if err != nil {
				return nil, fmt.Errorf("brepgen: face a%ds%d: %w", axis, side, err)
			}
			c.Faces = append(c.Faces, a)
		}
	}

	// The brep ties everything together.
	hull := atom.Array(
		atom.Real(off), atom.Real(off+size),
		atom.Real(off), atom.Real(off+size),
		atom.Real(off), atom.Real(off+size),
	)
	brep, err := add("brep", map[string]atom.Value{
		"brep_no": atom.Int(int64(brepNo)),
		"hull":    hull,
		"faces":   atom.RefSet(c.Faces...),
		"edges":   atom.RefSet(c.Edges...),
		"points":  atom.RefSet(c.Points...),
	})
	if err != nil {
		return nil, fmt.Errorf("brepgen: brep: %w", err)
	}
	c.Brep = brep

	solid, err := add("solid", map[string]atom.Value{
		"solid_no":    atom.Int(int64(solidNo)),
		"description": atom.Str(fmt.Sprintf("cube %d", solidNo)),
		"brep":        atom.Ref(brep),
	})
	if err != nil {
		return nil, fmt.Errorf("brepgen: solid: %w", err)
	}
	c.Solid = solid
	return c, nil
}

// BuildScene creates n cubes with solid/brep numbers 1..n and returns them.
func BuildScene(e *core.Engine, n int) ([]*Cube, error) {
	cubes := make([]*Cube, 0, n)
	for i := 1; i <= n; i++ {
		c, err := BuildCube(e, i, i, float64(i)*10, 1+float64(i%7))
		if err != nil {
			return nil, err
		}
		cubes = append(cubes, c)
	}
	return cubes, nil
}

// BuildAssembly creates a recursive solid assembly: a complete tree of the
// given depth and branching factor connected through sub/super (the
// piece_list structure), as one atom set. Solids are numbered in preorder
// starting at baseNo; the root gets baseNo. It returns the root address and
// the total number of solids created.
func BuildAssembly(e *core.Engine, baseNo, depth, branching int) (addr.LogicalAddr, int, error) {
	set := e.System().NewAtomSet()
	var build func(level int, super addr.LogicalAddr) (addr.LogicalAddr, error)
	build = func(level int, super addr.LogicalAddr) (addr.LogicalAddr, error) {
		vals := map[string]atom.Value{
			"solid_no":    atom.Int(int64(baseNo + set.Len())),
			"description": atom.Str(fmt.Sprintf("assembly level %d", level)),
		}
		if level > 0 {
			vals["super"] = atom.RefSet(super) // the super gains its sub in the set
		}
		a, err := set.Add("solid", vals)
		for i := 0; err == nil && level < depth && i < branching; i++ {
			_, err = build(level+1, a)
		}
		return a, err
	}
	root, err := build(0, 0)
	if err == nil {
		err = e.System().WriteSet(set)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("brepgen: assembly: %w", err)
	}
	return root, set.Len(), nil
}
