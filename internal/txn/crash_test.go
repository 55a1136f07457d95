package txn

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/storage/device"
)

// crashScene is what a crash test's workload runs in: the buffer pool's
// budget and the padding each part carries.
type crashScene struct {
	bufferBytes int64
	pad         int // bytes; 0 leaves parts without a pad attribute
}

var (
	// crashFits holds the workload's pages in the buffer: they reach the
	// device through checkpoints and Close.
	crashFits = crashScene{bufferBytes: 64 << 10}
	// crashPressure gives the buffer four pages and each part a quarter of
	// one: the parts a run leaves live span more pages than the buffer
	// holds, so dirty pages also reach the device inside evictions, between
	// checkpoints.
	crashPressure = crashScene{bufferBytes: 4 << 10, pad: 240}
)

// config returns the access configuration the crash tests run under: the
// scene's buffer, aggressive checkpointing (every 16 KiB of log, from the
// log's own checkpoint loop) and a short group-commit window.
func (sc crashScene) config(dir string, wrap func(string, device.Device) device.Device) access.Config {
	return access.Config{
		Dir:                dir,
		WAL:                true,
		PageSize:           1024,
		BufferBytes:        sc.bufferBytes,
		GroupCommitMaxWait: 100 * time.Microsecond,
		WALCheckpointBytes: 16 << 10,
		FileWrap:           wrap,
	}
}

// crashCfg is the configuration of the tests that run in crashFits.
func crashCfg(dir string, wrap func(string, device.Device) device.Device) access.Config {
	return crashFits.config(dir, wrap)
}

// setupCrashDB creates a database directory holding just the schema, so
// every incarnation under test starts from the same durable base state.
func setupCrashDB(t *testing.T, dir string) { setupCrashScene(t, crashFits, dir) }

func setupCrashScene(t *testing.T, sc crashScene, dir string) {
	t.Helper()
	sys, err := access.Open(sc.config(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	attrs := []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "no", Type: catalog.SpecInt()},
	}
	if sc.pad > 0 {
		attrs = append(attrs, catalog.Attribute{Name: "pad", Type: catalog.SpecString()})
	}
	part, err := catalog.NewAtomType("part", attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Schema().AddAtomType(part); err != nil {
		t.Fatal(err)
	}
	if err := sys.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashRun executes the deterministic workload against a fresh copy of the
// base database with every device volatile and the given crash plan armed.
// It returns the committed model (addr -> expected "no" value), the set of
// every address the run ever allocated, and — when the crash fired inside a
// Commit call — that transaction's staged changes (which recovery may
// legitimately have preserved, atomically).
type crashOutcome struct {
	model    map[addr.LogicalAddr]int64 // acked-committed state
	ever     map[addr.LogicalAddr]bool  // every address allocated pre-crash
	inFlight map[addr.LogicalAddr]int64 // nil unless the crash hit a Commit; -1 = deleted
	// evictWritebacks counts the pages written back to free a frame, for
	// a run that did not crash.
	evictWritebacks int64
}

const crashTxns = 30

func crashRun(t *testing.T, sc crashScene, dir string, plan *device.CrashPlan, seed int64) crashOutcome {
	t.Helper()
	wrap := func(name string, d device.Device) device.Device {
		fd := device.NewFault(d)
		fd.SetVolatile(true)
		fd.SetPlan(plan, strings.HasPrefix(name, "wal_"))
		return fd
	}
	out := crashOutcome{
		model: map[addr.LogicalAddr]int64{},
		ever:  map[addr.LogicalAddr]bool{},
	}
	sys, err := access.Open(sc.config(dir, wrap))
	if err != nil {
		if plan.Crashed() {
			return out // crash during open-time recovery/checkpoint
		}
		t.Fatal(err)
	}
	defer sys.Close() // after a crash this fails; that is the point

	m := NewManager(sys)
	rng := rand.New(rand.NewSource(seed))
	var live []addr.LogicalAddr // committed live addresses, insertion order
	nextVal := int64(1)
	fields := func(v int64) map[string]atom.Value {
		f := map[string]atom.Value{"no": atom.Int(v)}
		if sc.pad > 0 {
			f["pad"] = atom.Str(strings.Repeat("p", sc.pad))
		}
		return f
	}

	for i := 0; i < crashTxns; i++ {
		// Stage this transaction's intended effects: -1 marks a delete.
		staged := map[addr.LogicalAddr]int64{}
		var stagedLive []addr.LogicalAddr
		tx := m.Begin()
		nops := 1 + rng.Intn(3)
		doErr := tx.Do(func(w access.Writer) error {
			for o := 0; o < nops; o++ {
				pool := append(append([]addr.LogicalAddr{}, live...), stagedLive...)
				k := rng.Intn(10)
				switch {
				case len(pool) == 0 || k < 5: // insert
					v := nextVal
					nextVal++
					a, err := w.Insert("part", fields(v))
					if err != nil {
						return err
					}
					out.ever[a] = true
					staged[a] = v
					stagedLive = append(stagedLive, a)
				case k < 8: // update
					a := pool[rng.Intn(len(pool))]
					if staged[a] == -1 {
						continue
					}
					v := nextVal
					nextVal++
					if err := w.Update(a, map[string]atom.Value{"no": atom.Int(v)}); err != nil {
						return err
					}
					staged[a] = v
				default: // delete
					a := pool[rng.Intn(len(pool))]
					if staged[a] == -1 {
						continue
					}
					if err := w.Delete(a); err != nil {
						return err
					}
					staged[a] = -1
				}
			}
			return nil
		})
		if doErr != nil {
			if plan.Crashed() {
				return out // crash mid-statement: the transaction is a loser
			}
			t.Fatalf("txn %d: %v", i, doErr)
		}
		if rng.Intn(10) == 0 {
			if err := tx.Abort(); err != nil {
				if plan.Crashed() {
					return out
				}
				t.Fatalf("txn %d abort: %v", i, err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			if plan.Crashed() {
				// The commit record may or may not have reached the disk
				// (torn log write): recovery may keep this transaction, but
				// only atomically.
				out.inFlight = staged
				return out
			}
			t.Fatalf("txn %d commit: %v", i, err)
		}
		// Acked: fold the staged changes into the expected model.
		for a, v := range staged {
			if v == -1 {
				delete(out.model, a)
			} else {
				out.model[a] = v
			}
		}
		live = live[:0]
		for a := range out.model {
			live = append(live, a)
		}
		// Map iteration order is random; restore determinism for target picks.
		sortAddrs(live)
	}
	out.evictWritebacks = sys.Pool().Stats().EvictWritebacks
	return out
}

func sortAddrs(as []addr.LogicalAddr) {
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j] < as[j-1]; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// checkState verifies that the reopened system's state equals the model:
// every modeled address holds its expected value, every other address the
// run allocated is absent. It returns an error instead of failing so the
// caller can try the in-flight alternative.
func checkState(sys *access.System, out crashOutcome, model map[addr.LogicalAddr]int64) error {
	for a, v := range model {
		if !sys.Directory().Exists(a) {
			return fmt.Errorf("committed atom %v missing", a)
		}
		at, err := sys.Get(a, nil)
		if err != nil {
			return fmt.Errorf("committed atom %v unreadable: %w", a, err)
		}
		got, _ := at.Value("no")
		if got.I != v {
			return fmt.Errorf("atom %v: no = %d, want %d", a, got.I, v)
		}
	}
	for a := range out.ever {
		if _, expected := model[a]; expected {
			continue
		}
		if sys.Directory().Exists(a) {
			return fmt.Errorf("uncommitted/deleted atom %v present", a)
		}
	}
	return nil
}

// recoverAndVerify reopens the crashed database without fault injection,
// letting write-ahead-log recovery run, and checks the committed-prefix
// property; then proves the database is still writable.
func recoverAndVerify(t *testing.T, sc crashScene, dir string, out crashOutcome, point string) {
	t.Helper()
	sys, err := access.Open(sc.config(dir, nil))
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", point, err)
	}
	defer sys.Close()

	err = checkState(sys, out, out.model)
	if err != nil && out.inFlight != nil {
		// The in-flight commit's record may have survived (torn tail):
		// then its whole transaction must be present.
		withB := map[addr.LogicalAddr]int64{}
		for a, v := range out.model {
			withB[a] = v
		}
		for a, v := range out.inFlight {
			if v == -1 {
				delete(withB, a)
			} else {
				withB[a] = v
			}
		}
		if errB := checkState(sys, out, withB); errB == nil {
			err = nil
		}
	}
	if err != nil {
		t.Fatalf("%s: state after recovery: %v", point, err)
	}

	// The recovered database accepts new work.
	a, err := sys.Insert("part", map[string]atom.Value{"no": atom.Int(424242)})
	if err != nil {
		t.Fatalf("%s: insert after recovery: %v", point, err)
	}
	at, err := sys.Get(a, nil)
	if err != nil {
		t.Fatalf("%s: read-back after recovery: %v", point, err)
	}
	if v, _ := at.Value("no"); v.I != 424242 {
		t.Fatalf("%s: read-back = %d", point, v.I)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", point, err)
	}
}

// TestCrashRecoveryEveryPoint is the crash-recovery property test: it
// rehearses a random workload fault-free to count the durability points
// (device syncs and writes), then replays the same workload crashing at
// every sync and at sampled (torn) writes, reopening and verifying after
// each crash that exactly the acked-committed prefix survived and the
// database still works.
func TestCrashRecoveryEveryPoint(t *testing.T) {
	crashEveryPoint(t, crashFits, false)
}

// TestCrashRecoveryUnderBufferPressure is the property test in crashPressure:
// a crash point also falls inside writebacks made to free a frame, while the
// log's checkpoint loop runs beside the transactions.
func TestCrashRecoveryUnderBufferPressure(t *testing.T) {
	crashEveryPoint(t, crashPressure, true)
}

// crashEveryPoint runs the property test in sc; with evicts set, the
// rehearsal must write a dirty page back to free a frame.
func crashEveryPoint(t *testing.T, sc crashScene, evicts bool) {
	const seed = 7

	// Rehearsal: count the workload's crash points.
	base := t.TempDir()
	rehearsalDir := filepath.Join(base, "rehearsal")
	setupCrashScene(t, sc, rehearsalDir)
	plan := device.NewCrashPlan() // never armed
	out := crashRun(t, sc, rehearsalDir, plan, seed)
	writes, syncs := plan.Counts()
	if syncs < 5 || writes < 10 {
		t.Fatalf("rehearsal too quiet: %d writes, %d syncs", writes, syncs)
	}
	if len(out.model) == 0 {
		t.Fatal("rehearsal committed nothing")
	}
	if evicts && out.evictWritebacks == 0 {
		t.Fatal("rehearsal wrote no page back to free a frame: no crash point falls inside an eviction")
	}
	recoverAndVerify(t, sc, rehearsalDir, out, "rehearsal")

	syncStep, writeStep := 1, 7
	if testing.Short() {
		syncStep, writeStep = 4, 29
	}

	for k := 1; k <= syncs; k += syncStep {
		k := k
		t.Run(fmt.Sprintf("sync-%d", k), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("sync%d", k))
			setupCrashScene(t, sc, dir)
			plan := device.NewCrashPlan()
			plan.CrashAtSync(k)
			out := crashRun(t, sc, dir, plan, seed)
			recoverAndVerify(t, sc, dir, out, fmt.Sprintf("crash at sync %d", k))
		})
	}

	rng := rand.New(rand.NewSource(seed))
	for j := 1; j <= writes; j += writeStep {
		j := j
		torn := rng.Intn(3 * 1024)
		t.Run(fmt.Sprintf("write-%d", j), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("write%d", j))
			setupCrashScene(t, sc, dir)
			plan := device.NewCrashPlan()
			plan.CrashAtWrite(j, torn)
			out := crashRun(t, sc, dir, plan, seed)
			recoverAndVerify(t, sc, dir, out, fmt.Sprintf("crash at write %d (torn %d)", j, torn))
		})
	}
}

// TestCrashKeepsAutocommitWrittenWhileTxOpen: the write-ahead log attributes
// every record to the write context that made it. An autocommit write acked
// while a transaction's statement runs, made durable by a later commit,
// survives a crash that leaves the transaction a loser: its record carries
// no transaction id, so recovery redoes it and undoes only the loser's own
// write.
func TestCrashKeepsAutocommitWrittenWhileTxOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	setupCrashDB(t, dir)
	plan := device.NewCrashPlan()
	wrap := func(name string, d device.Device) device.Device {
		fd := device.NewFault(d)
		fd.SetVolatile(true)
		fd.SetPlan(plan, false)
		return fd
	}
	sys, err := access.Open(crashCfg(dir, wrap))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(sys)
	insert := func() addr.LogicalAddr {
		t.Helper()
		var a addr.LogicalAddr
		tx := m.Begin()
		if err := tx.Do(func(w access.Writer) error {
			var err error
			a, err = w.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := insert(), insert()

	loser := m.Begin()
	finish := inStatement(t, loser, a)
	if err := setNo(m.Autocommit(), b, 5); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	insert() // its commit forces the log, the autocommit record included
	writes, syncs := plan.Counts()
	plan.CrashAtWrite(writes+1, 0)
	plan.CrashAtSync(syncs + 1)
	_ = sys.Close() // the first write or sync of the close crashes
	if !plan.Crashed() {
		t.Fatal("crash did not fire")
	}

	sys, err = access.Open(crashCfg(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := no(t, sys, a); got != 1 {
		t.Errorf("loser's write survived: a = %d, want 1", got)
	}
	if got := no(t, sys, b); got != 5 {
		t.Errorf("acked autocommit write lost: b = %d, want 5", got)
	}
}
