// GIS: map handling with a multidimensional (grid) access path. A region
// query over site coordinates runs through the n-dimensional access-path
// scan with per-key start/stop conditions (§3.2).
package main

import (
	"fmt"
	"log"

	"prima"
	"prima/internal/access/atom"
	"prima/internal/access/mdindex"
	"prima/internal/workload/mapgen"
)

func main() {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(mapgen.SchemaDDL); err != nil {
		log.Fatal(err)
	}
	if _, err := mapgen.Build(db.Engine(), 2, 5, 40, 7); err != nil {
		log.Fatal(err)
	}

	// LDL: a two-dimensional grid access path over site coordinates.
	if _, err := db.Exec(`CREATE ACCESS PATH site_xy ON site (x, y) USING GRID`); err != nil {
		log.Fatal(err)
	}

	// Region query through the access system's n-dimensional scan: sites
	// in the box [25,75]×[25,75], x ascending, y descending.
	lo, hi := atom.Real(25), atom.Real(75)
	n := 0
	err = db.System().AccessPathScan("site_xy",
		[]mdindex.Range{{Start: &lo, Stop: &hi}, {Start: &lo, Stop: &hi, Desc: true}},
		func(keys []atom.Value, a prima.LogicalAddr) bool {
			n++
			return true
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid access path: %d site(s) in the query box\n", n)

	// Molecule view: whole map sheets with populous regions.
	res, err := db.ExecOne(`
	  SELECT map, region, (site := SELECT name, pop FROM site WHERE pop > 50000)
	  FROM map-region-site
	  WHERE scale = 25000`)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Molecules {
		big := 0
		for _, s := range m.AtomsOf("site") {
			if !s.Hidden {
				big++
			}
		}
		name, _ := m.Root.Value("name")
		fmt.Printf("map %s: %d region(s), %d populous site(s)\n",
			name, len(m.AtomsOf("region")), big)
	}

	// Horizontal access with a quantifier: regions where every site is
	// small.
	res, err = db.ExecOne(`SELECT ALL FROM region-site WHERE FOR_ALL site: site.pop < 90000`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d region(s) without any large city\n", len(res.Molecules))
}
