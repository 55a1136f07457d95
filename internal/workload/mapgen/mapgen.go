// Package mapgen generates map-handling workloads — the third motivating
// application area (§1): maps composed of regions whose borders are
// polylines over located points. Coordinates drive the multidimensional
// (grid) access paths.
package mapgen

import (
	"fmt"
	"math/rand"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
)

// SchemaDDL defines maps, regions and sites. Sites carry coordinates as
// plain REAL attributes so grid access paths apply.
const SchemaDDL = `
CREATE ATOM_TYPE map
  ( map_id  : IDENTIFIER,
    name    : CHAR_VAR,
    scale   : INTEGER,
    regions : SET_OF (REF_TO (region.map)) );

CREATE ATOM_TYPE region
  ( region_id : IDENTIFIER,
    name      : CHAR_VAR,
    kind      : CHAR_VAR,
    map       : REF_TO (map.regions),
    sites     : SET_OF (REF_TO (site.region)) );

CREATE ATOM_TYPE site
  ( site_id : IDENTIFIER,
    name    : CHAR_VAR,
    x       : REAL,
    y       : REAL,
    pop     : INTEGER,
    region  : REF_TO (region.sites) );

DEFINE MOLECULE TYPE map_obj FROM map - region - site;
`

// World holds generated addresses.
type World struct {
	Maps    []addr.LogicalAddr
	Regions []addr.LogicalAddr
	Sites   []addr.LogicalAddr
}

// Build creates maps with regionsPerMap regions of sitesPerRegion sites at
// deterministic pseudo-random coordinates in [0,100)².
func Build(e *core.Engine, maps, regionsPerMap, sitesPerRegion int, seed int64) (*World, error) {
	sys := e.System()
	rng := rand.New(rand.NewSource(seed))
	w := &World{}
	kinds := []string{"urban", "forest", "water", "farmland"}
	for m := 0; m < maps; m++ {
		// A map with its regions and sites is one atom set.
		set := sys.NewAtomSet()
		ma, err := set.Add("map", map[string]atom.Value{
			"name":  atom.Str(fmt.Sprintf("sheet-%d", m)),
			"scale": atom.Int(int64(25000 * (m + 1))),
		})
		if err != nil {
			return nil, fmt.Errorf("mapgen: map %d: %w", m, err)
		}
		w.Maps = append(w.Maps, ma)
		for r := 0; r < regionsPerMap; r++ {
			re, err := set.Add("region", map[string]atom.Value{
				"name": atom.Str(fmt.Sprintf("r%d-%d", m, r)),
				"kind": atom.Str(kinds[(m+r)%len(kinds)]),
				"map":  atom.Ref(ma),
			})
			if err != nil {
				return nil, fmt.Errorf("mapgen: region: %w", err)
			}
			w.Regions = append(w.Regions, re)
			for s := 0; s < sitesPerRegion; s++ {
				si, err := set.Add("site", map[string]atom.Value{
					"name":   atom.Str(fmt.Sprintf("s%d", len(w.Sites))),
					"x":      atom.Real(rng.Float64() * 100),
					"y":      atom.Real(rng.Float64() * 100),
					"pop":    atom.Int(int64(rng.Intn(100000))),
					"region": atom.Ref(re),
				})
				if err != nil {
					return nil, fmt.Errorf("mapgen: site: %w", err)
				}
				w.Sites = append(w.Sites, si)
			}
		}
		if err := sys.WriteSet(set); err != nil {
			return nil, fmt.Errorf("mapgen: map %d: %w", m, err)
		}
	}
	return w, nil
}
