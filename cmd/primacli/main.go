// Command primacli is an interactive MQL shell for a PRIMA database —
// embedded, or remote against a primad server.
//
// Usage:
//
//	primacli [-dir path | -remote host:port] [-e "statements"] [-max-molecules n]
//
// Without -e it reads statements from stdin (terminated by ';'), executes
// them, and prints results. With -dir the database persists; otherwise it is
// in-memory for the session. With -remote, statements run over the wire and
// the shell's retry/backoff behaviour is the client library's.
//
// The shell also understands meta-commands:
//
//	.stats             server health counters (shed/panic/rejection tallies)
//	                   alongside this client's retry and reconnect tally
//	.explain <query>   EXPLAIN ANALYZE the query: plan tree plus actual
//	                   per-stage timings and counters
//	.slow [n]          the server's retained slow-query traces, newest
//	                   first (default 5)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"prima"
	"prima/internal/obs"
	"prima/internal/wire"
)

// session abstracts where statements run: an embedded DB or a wire client.
type session interface {
	run(src string, maxMol int) error
	stats() error
	slow(n int) error
	close()
}

func main() {
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	remote := flag.String("remote", "", "primad address to connect to (overrides -dir)")
	exec := flag.String("e", "", "execute these statements and exit")
	maxMol := flag.Int("max-molecules", 20, "molecules printed per SELECT")
	flag.Parse()

	var (
		s   session
		err error
	)
	if *remote != "" {
		s, err = dialRemote(*remote)
	} else {
		s, err = openLocal(*dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "primacli:", err)
		os.Exit(1)
	}
	defer s.close()

	if *exec != "" {
		if err := s.run(*exec, *maxMol); err != nil {
			fmt.Fprintln(os.Stderr, "primacli:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("PRIMA — Molecule Query Language shell (end statements with ';'; '.stats', '.explain <query>', '.slow [n]'; Ctrl-D to quit)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "mql> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if buf.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), ".") {
			if err := metaCommand(s, strings.TrimSpace(line), *maxMol); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "...> "
			continue
		}
		src := buf.String()
		buf.Reset()
		prompt = "mql> "
		if err := s.run(src, *maxMol); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// metaCommand runs one dot-command line.
func metaCommand(s session, line string, maxMol int) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case ".stats":
		return s.stats()
	case ".explain":
		if rest == "" {
			return fmt.Errorf(".explain expects a SELECT statement")
		}
		// EXPLAIN ANALYZE runs the query; its result prints the plan tree
		// plus the actual per-stage breakdown.
		return s.run("EXPLAIN ANALYZE "+strings.TrimSuffix(rest, ";")+";", maxMol)
	case ".slow":
		n := 5
		if rest != "" {
			v, err := strconv.Atoi(rest)
			if err != nil || v <= 0 {
				return fmt.Errorf(".slow expects a positive count, got %q", rest)
			}
			n = v
		}
		return s.slow(n)
	default:
		return fmt.Errorf("unknown meta-command %s (.stats, .explain <query>, .slow [n])", cmd)
	}
}

// printTraces renders retained slow-query traces.
func printTraces(traces []*obs.TraceSnapshot) {
	if len(traces) == 0 {
		fmt.Println("no slow queries retained (is a slow-query threshold set?)")
		return
	}
	for i, t := range traces {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.String())
	}
}

// ---- embedded session ----

type localSession struct{ db *prima.DB }

func openLocal(dir string) (session, error) {
	db, err := prima.Open(prima.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	return &localSession{db: db}, nil
}

func (s *localSession) close() { s.db.Close() }

func (s *localSession) run(src string, maxMol int) error {
	results, err := s.db.Exec(src)
	for _, r := range results {
		printResult(r, maxMol)
	}
	return err
}

func (s *localSession) stats() error {
	return s.db.Metrics().PrometheusText(os.Stdout)
}

func (s *localSession) slow(n int) error {
	traces := s.db.Tracer().Slow()
	if len(traces) > n {
		traces = traces[:n]
	}
	printTraces(traces)
	return nil
}

// ---- remote session ----

type remoteSession struct{ c *wire.Client }

func dialRemote(addr string) (session, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &remoteSession{c: c}, nil
}

func (s *remoteSession) close() { s.c.Close() }

func (s *remoteSession) run(src string, maxMol int) error {
	resp, err := s.c.Exec(src)
	if err != nil {
		return err
	}
	printResponse(resp, maxMol)
	return nil
}

// stats prints the server's health counters next to this client's own
// retry tally.
func (s *remoteSession) stats() error {
	ms, err := s.c.Metrics()
	if err != nil {
		return err
	}
	retries, reconnects := s.c.Retries()
	fmt.Printf("client: %d round trips, %d retries, %d reconnects\n",
		s.c.RoundTrips(), retries, reconnects)
	fmt.Printf("server: %d requests, %d shed, %d panics recovered\n",
		ms.Counter("wire_requests"), ms.Counter("wire_shed"), ms.Counter("wire_panics"))
	fmt.Printf("conns:  %.0f active, %d total, %d rejected, %.0f in flight\n",
		ms.Gauge("wire_conns_active"), ms.Counter("wire_conns_total"), ms.Counter("wire_conns_rejected"), ms.Gauge("wire_inflight"))
	fmt.Printf("cache:  atom %d/%d hits/misses, buffer %d/%d, plans %d/%d\n",
		ms.Counter("atom_cache_hits"), ms.Counter("atom_cache_misses"), ms.Counter("buffer_hits"), ms.Counter("buffer_misses"),
		ms.Counter("plan_cache_hits"), ms.Counter("plan_cache_misses"))
	if ms.Gauge("wal_enabled") != 0 {
		fmt.Printf("wal:    %d appends, %d commits, %d syncs, %d checkpoints\n",
			ms.Counter("wal_appends"), ms.Counter("wal_commits"), ms.Counter("wal_syncs"), ms.Counter("wal_checkpoints"))
		if ms.Gauge("wal_checkpoint_failing") != 0 {
			fmt.Println("wal:    CHECKPOINT FAILING (the log is not being truncated)")
		}
	}
	return nil
}

func (s *remoteSession) slow(n int) error {
	traces, err := s.c.Slow(n)
	if err != nil {
		return err
	}
	printTraces(traces)
	return nil
}

// printResponse renders a wire response in the same shape as printResult.
func printResponse(r *wire.Response, maxMol int) {
	switch {
	case len(r.Molecules) > 0:
		fmt.Printf("%d molecule(s)\n", len(r.Molecules))
		for i, m := range r.Molecules {
			if i >= maxMol {
				fmt.Printf("... %d more\n", len(r.Molecules)-maxMol)
				break
			}
			printMolecule(m)
		}
	case len(r.Inserted) > 0:
		ids := make([]string, len(r.Inserted))
		for i, a := range r.Inserted {
			ids[i] = fmt.Sprintf("@%d", a)
		}
		fmt.Printf("inserted %s\n", strings.Join(ids, ", "))
	case r.Message != "":
		fmt.Println(r.Message)
	default:
		// An empty SELECT: no molecules, no message.
		fmt.Printf("%d molecule(s)\n", r.Count)
	}
}

func printMolecule(m wire.MoleculeJSON) {
	fmt.Printf("molecule @%d\n", m.Root)
	for _, a := range m.Atoms {
		fmt.Printf("  %s @%d %v\n", a.Type, a.Addr, a.Values)
	}
}

func printResult(r *prima.Result, maxMol int) {
	switch r.Kind {
	case "molecules":
		fmt.Printf("%d molecule(s)\n", len(r.Molecules))
		for i, m := range r.Molecules {
			if i >= maxMol {
				fmt.Printf("... %d more\n", len(r.Molecules)-maxMol)
				break
			}
			fmt.Print(m)
		}
	case "inserted":
		ids := make([]string, len(r.Inserted))
		for i, a := range r.Inserted {
			ids[i] = a.String()
		}
		fmt.Printf("inserted %s\n", strings.Join(ids, ", "))
	case "count":
		fmt.Println(r.Message)
	default:
		if r.Message != "" {
			fmt.Println(r.Message)
		}
	}
}
