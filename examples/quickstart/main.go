// Quickstart: define a schema with a symmetric n:m association, insert
// atoms, connect them, and retrieve dynamically defined molecules.
package main

import (
	"fmt"
	"log"
	"os"

	"prima"
)

func main() {
	db, err := prima.Open(prima.Config{}) // in-memory; set Dir for persistence
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A document/author schema: the n:m association is one pair of
	// SET_OF(REF_TO) attributes; PRIMA maintains both directions.
	if _, err := db.Exec(`
	  CREATE ATOM_TYPE doc
	    ( doc_id  : IDENTIFIER,
	      title   : CHAR_VAR,
	      year    : INTEGER,
	      authors : SET_OF (REF_TO (author.docs)) );
	  CREATE ATOM_TYPE author
	    ( author_id : IDENTIFIER,
	      name      : CHAR_VAR,
	      docs      : SET_OF (REF_TO (doc.authors)) );
	`); err != nil {
		log.Fatal(err)
	}

	res, err := db.Exec(`INSERT INTO author (name) VALUES ('Härder'), ('Mitschang')`)
	if err != nil {
		log.Fatal(err)
	}
	h, m := res[0].Inserted[0], res[0].Inserted[1]

	res, err = db.Exec(`INSERT INTO doc (title, year) VALUES ('PRIMA', 1987), ('MAD model', 1987)`)
	if err != nil {
		log.Fatal(err)
	}
	prima1987, mad := res[0].Inserted[0], res[0].Inserted[1]

	// Connect either side; the back-reference appears automatically.
	for _, stmt := range []string{
		fmt.Sprintf("CONNECT @%d.%d TO @%d.%d VIA authors", prima1987.Type(), prima1987.Seq(), h.Type(), h.Seq()),
		fmt.Sprintf("CONNECT @%d.%d TO @%d.%d VIA docs", m.Type(), m.Seq(), prima1987.Type(), prima1987.Seq()),
		fmt.Sprintf("CONNECT @%d.%d TO @%d.%d VIA authors", mad.Type(), mad.Seq(), m.Type(), m.Seq()),
	} {
		if _, err := db.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}

	// Vertical access: the doc-author molecule is defined in the query.
	fmt.Println("== docs with their authors ==")
	cur, err := db.Query(`SELECT ALL FROM doc-author WHERE year = 1987`)
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()
	for {
		mol, err := cur.Next()
		if err != nil {
			log.Fatal(err)
		}
		if mol == nil {
			break
		}
		fmt.Print(mol)
	}

	// Symmetric traversal: the same association read from the other end.
	fmt.Println("== authors with their docs (inverse direction) ==")
	res2, err := db.ExecOne(`SELECT ALL FROM author-doc WHERE name = 'Mitschang'`)
	if err != nil {
		log.Fatal(err)
	}
	for _, mol := range res2.Molecules {
		fmt.Print(mol)
	}

	fmt.Println("== metrics ==")
	if err := db.Metrics().PrometheusText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
