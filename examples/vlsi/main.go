// VLSI: netlist navigation in both directions over the same n:m
// association — cell→pin→net ("which signals does u7 touch?") and
// net→pin→cell ("which cells load sig3?") — the symmetric traversal the
// paper demands for engineering structures.
package main

import (
	"fmt"
	"log"

	"prima"
	"prima/internal/workload/vlsigen"
)

func main() {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(vlsigen.SchemaDDL); err != nil {
		log.Fatal(err)
	}
	if _, err := vlsigen.Build(db.Engine(), 40, 4, 12, 1); err != nil {
		log.Fatal(err)
	}

	// Forward: a cell with its pins and their nets.
	res, err := db.ExecOne(`SELECT ALL FROM cell-pin-net WHERE name = 'u7'`)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Molecules[0]
	fmt.Printf("cell u7 drives/loads %d net(s) through %d pin(s):\n",
		len(m.AtomsOf("net")), len(m.AtomsOf("pin")))
	for _, n := range m.AtomsOf("net") {
		sig, _ := n.Value("signal")
		fmt.Printf("  net %s\n", sig)
	}

	// Inverse: the same association from the net side.
	res, err = db.ExecOne(`SELECT ALL FROM net-pin-cell WHERE signal = 'sig3'`)
	if err != nil {
		log.Fatal(err)
	}
	m = res.Molecules[0]
	fmt.Printf("net sig3 fans out to %d cell(s):\n", len(m.AtomsOf("cell")))
	for _, c := range m.AtomsOf("cell") {
		name, _ := c.Value("name")
		kind, _ := c.Value("kind")
		fmt.Printf("  cell %s (%s)\n", name, kind)
	}

	// A quantified design-rule query: nets loading at least 6 pins.
	res, err = db.ExecOne(`SELECT ALL FROM net-pin WHERE EXISTS_AT_LEAST (6) pin: pin.pos >= 0`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d net(s) with fanout >= 6 (check drive strength!)\n", len(res.Molecules))

	// Intra-query parallelism over the molecule set: a cursor over many
	// roots assembles molecules on one worker per CPU (up to eight) and still
	// delivers them in root order.
	cur, err := db.Query(`SELECT ALL FROM cell-pin-net`)
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()
	mols, err := cur.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel sweep assembled %d cell molecules\n", len(mols))
}
