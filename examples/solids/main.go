// Solids: the paper's running example. Builds the Fig. 2.3 BREP schema,
// populates cube solids and a recursive assembly, and runs the four
// hand-picked queries of Table 2.1 (a-d), plus the LDL tuning that makes
// them fast (access path + atom cluster).
package main

import (
	"fmt"
	"log"
	"os"

	"prima"
	"prima/internal/workload/brepgen"
)

func main() {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		log.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 5); err != nil {
		log.Fatal(err)
	}
	// A recursive assembly rooted at solid 4711 (depth 2, branching 3).
	if _, _, err := brepgen.BuildAssembly(db.Engine(), 4711, 2, 3); err != nil {
		log.Fatal(err)
	}

	// LDL: transparent performance enhancements (§2.3).
	if _, err := db.Exec(`
	  CREATE ACCESS PATH brep_no_idx ON brep (brep_no) USING BTREE;
	  CREATE ATOM_CLUSTER brep_cluster ON brep-face-edge-point;
	`); err != nil {
		log.Fatal(err)
	}

	run := func(label, q string) *prima.Result {
		res, err := db.ExecOne(q)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("== Table 2.1%s: %d molecule(s)\n", label, len(res.Molecules))
		return res
	}

	// (a) vertical access to network molecules.
	res := run("a", `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3`)
	fmt.Print(res.Molecules[0])

	// (b) vertical access to recursive molecules with seed qualification.
	res = run("b", `SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`)
	fmt.Printf("assembly of %d solids, depth %d\n",
		len(res.Molecules[0].AtomsOf("solid")), res.Molecules[0].MaxLevel())

	// (c) horizontal access with unqualified projection.
	res = run("c", `SELECT solid_no, description FROM solid WHERE sub = EMPTY`)
	fmt.Printf("%d primitive solids (no subparts)\n", len(res.Molecules))

	// (d) tree-structured FROM, quantified restriction, qualified projection.
	run("d", `
	  SELECT edge, (point,
	         face := SELECT face_id, square_dim
	                 FROM face
	                 WHERE square_dim > 10.0)
	  FROM brep-edge-(face, point)
	  WHERE brep_no = 3
	  AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0`)

	fmt.Println("== metrics ==")
	if err := db.Metrics().PrometheusText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
