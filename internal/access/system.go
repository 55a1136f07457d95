// Package access implements PRIMA's access system (§3.2): an atom-oriented
// interface in the spirit of System R's RSS that offers direct access to
// atoms and atom sets, enforces referential integrity over the symmetric
// reference attributes, and maintains the redundant, LDL-declared tuning
// structures — access paths, sort orders, partitions and atom clusters —
// transparently below the data model interface.
package access

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prima/internal/access/addr"
	"prima/internal/access/btree"
	"prima/internal/access/mdindex"
	"prima/internal/access/record"
	"prima/internal/catalog"
	"prima/internal/obs"
	"prima/internal/storage/buffer"
	"prima/internal/storage/device"
	"prima/internal/storage/pageseq"
	"prima/internal/storage/segment"
	"prima/internal/storage/wal"
)

// Errors returned by the access system.
var (
	ErrNoAtom        = errors.New("access: atom does not exist")
	ErrBadRef        = errors.New("access: reference to missing or wrongly typed atom")
	ErrReadOnlyAttr  = errors.New("access: IDENTIFIER attributes cannot be modified")
	ErrUnknownStruct = errors.New("access: unknown storage structure")
)

// Config tunes a System.
type Config struct {
	// Dir is the database directory; empty means fully in-memory.
	Dir string
	// PageSize for primary containers (default 8K). Must be one of the
	// five file-manager block sizes.
	PageSize int
	// BufferBytes is the buffer pool budget (default 4 MiB).
	BufferBytes int64
	// BufferShards is the number of lock stripes of the buffer pool
	// (rounded up to a power of two). 0 picks one stripe per CPU, capped
	// so every stripe still holds a useful number of pages; 1 disables
	// striping.
	BufferShards int
	// WAL enables the write-ahead log: mutations are logged before they
	// touch pages, commits become durable via group commit, and Open runs
	// crash recovery before serving requests.
	WAL bool
	// GroupCommitMaxWait bounds how long a committing transaction waits for
	// companions to share its fsync (default wal.DefaultGroupCommitMaxWait).
	GroupCommitMaxWait time.Duration
	// WALCheckpointBytes is the log growth between automatic checkpoints
	// (default wal.DefaultCheckpointBytes).
	WALCheckpointBytes int64
	// FileWrap, when set, interposes on every device the file manager
	// opens. Fault-injection tests use it to place crash-simulating
	// FaultDevices below the whole storage stack.
	FileWrap func(name string, d device.Device) device.Device
	// TraceSampleRate head-samples roughly 1-in-N requests into the recent
	// trace ring (0 = off).
	TraceSampleRate int
	// SlowQueryThreshold retains every request trace at least this slow in
	// the slow-query ring (0 = off). Setting it traces all requests.
	SlowQueryThreshold time.Duration
	// TraceLogf, when set, receives one structured line per slow query.
	TraceLogf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.PageSize == 0 {
		c.PageSize = device.B8K
	}
	if !device.ValidBlockSize(c.PageSize) {
		return device.ErrBadBlockSize
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 4 << 20
	}
	if c.BufferShards == 0 {
		c.BufferShards = runtime.NumCPU()
		if c.BufferShards > 16 {
			c.BufferShards = 16
		}
	}
	// The pool rounds the stripe count up to a power of two; round here
	// already so the per-stripe budget divides by the real count and the
	// aggregate stays within BufferBytes.
	c.BufferShards = buffer.RoundShards(c.BufferShards)
	// Every stripe must still hold a handful of the largest block-size
	// pages — structure segments (B*-trees, partitions) use fixed 4K pages
	// no matter what PageSize says. Shrink the stripe count until a stripe
	// can serve what a single-stripe pool could.
	const minPerShard = 8 * int64(device.B8K)
	for c.BufferShards > 1 && c.BufferBytes/int64(c.BufferShards) < minPerShard {
		c.BufferShards /= 2
	}
	return nil
}

// makePool builds the (possibly lock-striped) buffer pool: the byte budget
// is divided evenly over the stripes and each stripe runs an independent
// size-aware LRU.
func (c *Config) makePool() *buffer.Pool {
	perShard := c.BufferBytes / int64(c.BufferShards)
	return buffer.NewShardedPool(func() buffer.Policy { return buffer.NewSizeAwareLRU(perShard) }, c.BufferShards)
}

// sortOrderStruct is a materialized sort order: a redundant copy of every
// atom of the type, plus a B*-tree over the composite sort key locating the
// copies in defined order.
type sortOrderStruct struct {
	def       *catalog.SortOrderDef
	container *record.Container
	tree      *btree.BTree
	attrIdxs  []int
	desc      bool
}

// partitionStruct is a vertical partition: records hold an attribute subset.
type partitionStruct struct {
	def       *catalog.PartitionDef
	container *record.Container
	attrIdxs  []int
}

// accessPathStruct is an access path: a B*-tree (one attribute) or grid
// file (several attributes) mapping keys to logical addresses.
type accessPathStruct struct {
	def      *catalog.AccessPathDef
	attrIdxs []int
	tree     *btree.BTree  // Method == BTREE
	grid     *mdindex.Grid // Method == GRID
}

// clusterStruct manages the occurrences of one atom-cluster type: one page
// sequence per characteristic atom (Fig. 3.2).
type clusterStruct struct {
	def *catalog.ClusterDef
	seg *segment.Segment
	// occurrences maps the cluster's root (characteristic) atom to the
	// header page of its page sequence.
	occurrences map[addr.LogicalAddr]uint32
	// seqs caches opened sequences (their header pages are hot during
	// cluster scans); invalidated on rebuild.
	seqs map[addr.LogicalAddr]*pageseq.Sequence
}

// System is the access system instance for one database.
type System struct {
	cfg    Config
	schema *catalog.Schema
	files  *device.Manager
	pool   *buffer.Pool
	dir    *addr.Directory

	// reg is the database-wide metrics registry: the access system owns it
	// because it sits below every other layer — the engine, transaction
	// manager and wire server all pull their handles from here so one
	// snapshot covers the whole stack. decodeNs times batched atom reads that
	// missed the cache (page fix + record check), the stage assembly fans out on.
	reg      *obs.Registry
	decodeNs *obs.Histogram
	// ckptNs times checkpoints. ckptFileBytes counts what they write to the
	// files kept whole beside the segments (schema, directory and grid
	// snapshots, manifest), which no device counter sees.
	ckptNs        *obs.Histogram
	ckptFileBytes *obs.Counter

	// tracer owns per-request traces for the same reason reg owns metrics:
	// the access system sits below every layer, so the wire server, engine
	// and transaction manager all reach the one tracer through here.
	tracer *obs.Tracer

	// atoms is the atom cache (nil = disabled); swapped atomically
	// by SetAtomCacheSize. Its counters live here so statistics accumulate
	// across resizes.
	atoms   atomic.Pointer[atomCache]
	acStats acCounters

	// mv is the multi-version atom store backing snapshot reads; always
	// present (its cost is one atomic counter when no snapshot is open).
	mv *mvStore

	// wal is the write-ahead log (nil when Config.WAL is off).
	// walRecovering is set only during the single-threaded recovery replay in
	// Open, where the Raw* operators must not re-log the history they are
	// repeating.
	wal           *wal.Log
	walRecovering bool
	// walRoots collects, during recovery replay, the atoms the replay
	// re-created; the occurrences of the clusters they root are built once
	// the replay ends.
	walRoots map[addr.LogicalAddr]bool
	// txSeq numbers the transactions the log attributes records to: the
	// transaction manager's and the atom sets' of autocommit writes.
	txSeq   atomic.Uint64
	ckptMu  sync.Mutex
	walStop chan struct{}
	walDone chan struct{}
	// walCkptErr holds the outcome of the most recent checkpoint attempt
	// (nil on success): the operator-visible signal that log truncation has
	// stalled. See WALCheckpointErr.
	walCkptErr atomic.Pointer[error]

	mu          sync.RWMutex
	nextSegID   segment.ID
	segments    []*segment.Segment
	primaries   map[addr.TypeID]*record.Container
	primarySegs map[addr.TypeID]segment.ID
	sortOrders  map[addr.StructID]*sortOrderStruct
	partitions  map[addr.StructID]*partitionStruct
	accessPaths map[string]*accessPathStruct
	clusters    map[addr.StructID]*clusterStruct

	deferq *deferQueue
}

// Open creates or opens the access system for a database directory. When
// cfg.Dir is non-empty and contains a manifest, existing state is loaded.
func Open(cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:         cfg,
		files:       device.NewManager(cfg.Dir),
		pool:        cfg.makePool(),
		reg:         obs.NewRegistry(),
		nextSegID:   1,
		primaries:   make(map[addr.TypeID]*record.Container),
		primarySegs: make(map[addr.TypeID]segment.ID),
		sortOrders:  make(map[addr.StructID]*sortOrderStruct),
		partitions:  make(map[addr.StructID]*partitionStruct),
		accessPaths: make(map[string]*accessPathStruct),
		clusters:    make(map[addr.StructID]*clusterStruct),
		deferq:      newDeferQueue(),
	}
	if cfg.FileWrap != nil {
		s.files.SetWrap(cfg.FileWrap)
	}
	s.decodeNs = s.reg.Histogram("access_decode_ns")
	s.ckptNs = s.reg.Histogram("wal_checkpoint_ns")
	s.ckptFileBytes = s.reg.Counter("checkpoint_file_bytes_total")
	s.tracer = obs.NewTracer(obs.TracerConfig{
		SampleRate:    cfg.TraceSampleRate,
		SlowThreshold: cfg.SlowQueryThreshold,
		Logf:          cfg.TraceLogf,
	})
	s.pool.SetMissHist(s.reg.Histogram("buffer_read_ns"))
	// The atom cache starts at its default budget; SetAtomCacheSize resizes it.
	s.atoms.Store(newAtomCache(DefaultAtomCacheAtoms, cfg.BufferShards, nil, &s.acStats))
	s.mv = newMVStore()
	loaded := false
	if cfg.Dir != "" {
		if _, err := os.Stat(filepath.Join(cfg.Dir, "manifest.json")); err == nil {
			if err := s.load(); err != nil {
				return nil, err
			}
			loaded = true
		} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("access: create dir: %w", err)
		}
	}
	if !loaded {
		s.schema = catalog.NewSchema()
		s.dir = addr.NewDirectory()
	}
	if cfg.WAL {
		if err := s.openWAL(); err != nil {
			s.files.Close()
			return nil, err
		}
	}
	s.registerMetrics()
	return s, nil
}

// Obs exposes the database-wide metrics registry. Upper layers obtain their
// counter/histogram handles here so one Snapshot covers the whole stack.
func (s *System) Obs() *obs.Registry { return s.reg }

// Tracer exposes the database-wide request tracer (see obs.Tracer). Never
// nil after Open; whether it traces anything depends on its knobs.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// Schema exposes the catalog.
func (s *System) Schema() *catalog.Schema { return s.schema }

// Directory exposes the addressing structure (read-mostly use by upper
// layers and tests).
func (s *System) Directory() *addr.Directory { return s.dir }

// Pool exposes the buffer pool (statistics for experiments).
func (s *System) Pool() *buffer.Pool { return s.pool }

// PrimarySegment returns the segment holding the primary records of type t:
// with Directory it names the page of an atom (benchmarks of the buffer).
func (s *System) PrimarySegment(t addr.TypeID) (segment.ID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.primarySegs[t]
	return id, ok
}

// Files exposes the file manager (I/O statistics for experiments).
func (s *System) Files() *device.Manager { return s.files }

// newSegment creates a fresh segment with the given page size.
func (s *System) newSegment(name string, pageSize int, maxPages uint32) (*segment.Segment, error) {
	s.mu.Lock()
	id := s.nextSegID
	s.nextSegID++
	s.mu.Unlock()
	dev, err := s.files.Open(fmt.Sprintf("%s_%d.seg", name, id), pageSize)
	if err != nil {
		return nil, err
	}
	seg, err := segment.Create(dev, id, maxPages)
	if err != nil {
		return nil, err
	}
	s.pool.Register(seg)
	s.mu.Lock()
	s.segments = append(s.segments, seg)
	s.mu.Unlock()
	return seg, nil
}

// primary returns (creating on demand) the primary container of a type.
func (s *System) primary(t *catalog.AtomType) (*record.Container, error) {
	s.mu.RLock()
	c, ok := s.primaries[t.ID]
	s.mu.RUnlock()
	if ok {
		return c, nil
	}
	seg, err := s.newSegment("primary_"+t.Name, s.cfg.PageSize, 0)
	if err != nil {
		return nil, err
	}
	c, err = record.New(seg, s.pool)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if exist, ok := s.primaries[t.ID]; ok {
		s.mu.Unlock()
		return exist, nil
	}
	s.primaries[t.ID] = c
	s.primarySegs[t.ID] = seg.ID()
	s.mu.Unlock()
	return c, nil
}

// typeOf resolves and validates an atom type by name.
func (s *System) typeOf(name string) (*catalog.AtomType, error) {
	t, ok := s.schema.AtomType(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", catalog.ErrUnknownType, name)
	}
	return t, nil
}

// typeByID resolves an atom type by TypeID.
func (s *System) typeByID(id addr.TypeID) (*catalog.AtomType, error) {
	t, ok := s.schema.AtomTypeByID(id)
	if !ok {
		return nil, fmt.Errorf("%w: type id %d", catalog.ErrUnknownType, id)
	}
	return t, nil
}

// Count returns the number of live atoms of the named type (catalog
// statistics for the optimizer).
func (s *System) Count(typeName string) int {
	t, ok := s.schema.AtomType(typeName)
	if !ok {
		return 0
	}
	return s.dir.Count(t.ID)
}

// --- persistence -------------------------------------------------------------

// manifest is the JSON document tying together all on-disk state.
type manifest struct {
	NextSegID   segment.ID                    `json:"nextSegID"`
	PageSize    int                           `json:"pageSize"`
	Primaries   map[string]segment.ID         `json:"primaries"`   // type name -> segment
	SortOrders  map[string]sortOrderManifest  `json:"sortOrders"`  // name -> location
	Partitions  map[string]segment.ID         `json:"partitions"`  // name -> segment
	AccessPaths map[string]accessPathManifest `json:"accessPaths"` // name -> location
	Clusters    map[string]clusterManifest    `json:"clusters"`    // name -> location
}

type sortOrderManifest struct {
	ContainerSeg segment.ID `json:"containerSeg"`
	TreeSeg      segment.ID `json:"treeSeg"`
	TreeMeta     uint32     `json:"treeMeta"`
}

type accessPathManifest struct {
	TreeSeg  segment.ID `json:"treeSeg,omitempty"`
	TreeMeta uint32     `json:"treeMeta,omitempty"`
	GridFile string     `json:"gridFile,omitempty"`
}

type clusterManifest struct {
	Seg         segment.ID        `json:"seg"`
	Occurrences map[string]uint32 `json:"occurrences"` // "%d" addr -> header page
}

// Checkpoint makes the current state durable: it propagates deferred work,
// flushes the buffer pool, syncs every segment, snapshots the catalog,
// directory and manifest (temp-file + rename, so a crash never tears them),
// and — when the write-ahead log is on — marks the fuzzy checkpoint in the
// log so recovery can start from it and old segments can be recycled.
func (s *System) Checkpoint() error {
	err := s.checkpoint()
	if s.wal != nil {
		if err != nil {
			s.walCkptErr.Store(&err)
		} else {
			s.walCkptErr.Store(nil)
		}
	}
	return err
}

func (s *System) checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	defer s.ckptNs.ObserveSince(time.Now())
	var token *wal.CheckpointToken
	if s.wal != nil {
		token = s.wal.BeginCheckpoint()
	}
	if err := s.PropagateDeferred(); err != nil {
		return err
	}
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	s.mu.RLock()
	segs := append([]*segment.Segment(nil), s.segments...)
	s.mu.RUnlock()
	for _, seg := range segs {
		if err := seg.Sync(); err != nil {
			return err
		}
	}
	if s.cfg.Dir == "" {
		if err := s.files.Sync(); err != nil {
			return err
		}
		if s.wal != nil {
			return s.wal.EndCheckpoint(token)
		}
		return nil
	}
	schemaData, err := s.schema.Save()
	if err != nil {
		return err
	}
	if err := s.writeCheckpointFile("schema.json", schemaData); err != nil {
		return fmt.Errorf("access: write schema: %w", err)
	}
	// The snapshot holds every atom an insert has begun, committed or not.
	// Force the log records behind them first: an atom the snapshot keeps
	// and the durable log does not know could never be undone.
	dirSnap := s.dir.Snapshot()
	if s.wal != nil {
		if err := s.wal.FlushTo(s.wal.WriteLSN()); err != nil {
			return err
		}
	}
	if err := s.writeCheckpointFile("directory.snap", dirSnap); err != nil {
		return fmt.Errorf("access: write directory: %w", err)
	}

	s.mu.RLock()
	m := manifest{
		NextSegID:   s.nextSegID,
		PageSize:    s.cfg.PageSize,
		Primaries:   map[string]segment.ID{},
		SortOrders:  map[string]sortOrderManifest{},
		Partitions:  map[string]segment.ID{},
		AccessPaths: map[string]accessPathManifest{},
		Clusters:    map[string]clusterManifest{},
	}
	for tid, segID := range s.primarySegs {
		if t, ok := s.schema.AtomTypeByID(tid); ok {
			m.Primaries[t.Name] = segID
		}
	}
	for _, so := range s.sortOrders {
		m.SortOrders[so.def.Name] = sortOrderManifest{
			ContainerSeg: so.container.Segment().ID(),
			TreeSeg:      so.tree.Segment().ID(),
			TreeMeta:     so.tree.MetaPage(),
		}
	}
	for _, p := range s.partitions {
		m.Partitions[p.def.Name] = p.container.Segment().ID()
	}
	for name, ap := range s.accessPaths {
		am := accessPathManifest{}
		if ap.tree != nil {
			am.TreeSeg = ap.tree.Segment().ID()
			am.TreeMeta = ap.tree.MetaPage()
		} else {
			am.GridFile = "grid_" + name + ".snap"
			if err := s.writeCheckpointFile(am.GridFile, ap.grid.Snapshot()); err != nil {
				s.mu.RUnlock()
				return fmt.Errorf("access: write grid: %w", err)
			}
		}
		m.AccessPaths[name] = am
	}
	for _, cl := range s.clusters {
		cm := clusterManifest{Seg: cl.seg.ID(), Occurrences: map[string]uint32{}}
		for a, hp := range cl.occurrences {
			cm.Occurrences[fmt.Sprintf("%d", uint64(a))] = hp
		}
		m.Clusters[cl.def.Name] = cm
	}
	s.mu.RUnlock()

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := s.writeCheckpointFile("manifest.json", data); err != nil {
		return fmt.Errorf("access: write manifest: %w", err)
	}
	if err := s.files.Sync(); err != nil {
		return err
	}
	if s.wal != nil {
		return s.wal.EndCheckpoint(token)
	}
	return nil
}

// writeCheckpointFile rewrites one of the files a checkpoint keeps whole in
// the database directory and counts its bytes.
func (s *System) writeCheckpointFile(name string, data []byte) error {
	if err := writeFileAtomic(filepath.Join(s.cfg.Dir, name), data); err != nil {
		return err
	}
	s.ckptFileBytes.Add(uint64(len(data)))
	return nil
}

// load restores state from the database directory.
func (s *System) load() error {
	dir := s.cfg.Dir
	schemaData, err := os.ReadFile(filepath.Join(dir, "schema.json"))
	if err != nil {
		return fmt.Errorf("access: read schema: %w", err)
	}
	if s.schema, err = catalog.Load(schemaData); err != nil {
		return err
	}
	dirData, err := os.ReadFile(filepath.Join(dir, "directory.snap"))
	if err != nil {
		return fmt.Errorf("access: read directory: %w", err)
	}
	if s.dir, err = addr.LoadSnapshot(dirData); err != nil {
		return err
	}
	manData, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("access: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(manData, &m); err != nil {
		return fmt.Errorf("access: parse manifest: %w", err)
	}
	s.nextSegID = m.NextSegID
	s.cfg.PageSize = m.PageSize

	openSeg := func(id segment.ID, name string, pageSize int) (*segment.Segment, error) {
		dev, err := s.files.Open(fmt.Sprintf("%s_%d.seg", name, id), pageSize)
		if err != nil {
			return nil, err
		}
		seg, err := segment.Open(dev, id)
		if err != nil {
			return nil, err
		}
		s.pool.Register(seg)
		s.segments = append(s.segments, seg)
		return seg, nil
	}

	for typeName, segID := range m.Primaries {
		t, ok := s.schema.AtomType(typeName)
		if !ok {
			return fmt.Errorf("access: manifest names unknown type %s", typeName)
		}
		seg, err := openSeg(segID, "primary_"+typeName, s.cfg.PageSize)
		if err != nil {
			return err
		}
		c, err := record.New(seg, s.pool)
		if err != nil {
			return err
		}
		s.primaries[t.ID] = c
		s.primarySegs[t.ID] = segID
	}
	for name, sm := range m.SortOrders {
		def, ok := s.findSortOrderDef(name)
		if !ok {
			return fmt.Errorf("access: manifest names unknown sort order %s", name)
		}
		cseg, err := openSeg(sm.ContainerSeg, "sortorder_"+name, s.cfg.PageSize)
		if err != nil {
			return err
		}
		cont, err := record.New(cseg, s.pool)
		if err != nil {
			return err
		}
		tseg, err := openSeg(sm.TreeSeg, "sorttree_"+name, device.B4K)
		if err != nil {
			return err
		}
		tree, err := btree.Open(tseg, s.pool, sm.TreeMeta)
		if err != nil {
			return err
		}
		so, err := s.bindSortOrder(def, cont, tree)
		if err != nil {
			return err
		}
		s.sortOrders[def.ID] = so
	}
	for name, segID := range m.Partitions {
		def, ok := s.findPartitionDef(name)
		if !ok {
			return fmt.Errorf("access: manifest names unknown partition %s", name)
		}
		seg, err := openSeg(segID, "partition_"+name, device.B4K)
		if err != nil {
			return err
		}
		cont, err := record.New(seg, s.pool)
		if err != nil {
			return err
		}
		p, err := s.bindPartition(def, cont)
		if err != nil {
			return err
		}
		s.partitions[def.ID] = p
	}
	for name, am := range m.AccessPaths {
		def, ok := s.schema.AccessPath(name)
		if !ok {
			return fmt.Errorf("access: manifest names unknown access path %s", name)
		}
		ap, err := s.bindAccessPath(def)
		if err != nil {
			return err
		}
		if am.GridFile != "" {
			data, err := os.ReadFile(filepath.Join(dir, am.GridFile))
			if err != nil {
				return fmt.Errorf("access: read grid: %w", err)
			}
			if ap.grid, err = mdindex.Load(data); err != nil {
				return err
			}
		} else {
			tseg, err := openSeg(am.TreeSeg, "appath_"+name, device.B4K)
			if err != nil {
				return err
			}
			if ap.tree, err = btree.Open(tseg, s.pool, am.TreeMeta); err != nil {
				return err
			}
		}
		s.accessPaths[name] = ap
	}
	for name, cm := range m.Clusters {
		def, ok := s.findClusterDef(name)
		if !ok {
			return fmt.Errorf("access: manifest names unknown cluster %s", name)
		}
		seg, err := openSeg(cm.Seg, "cluster_"+name, s.cfg.PageSize)
		if err != nil {
			return err
		}
		cl := &clusterStruct{def: def, seg: seg, occurrences: map[addr.LogicalAddr]uint32{}, seqs: map[addr.LogicalAddr]*pageseq.Sequence{}}
		for k, hp := range cm.Occurrences {
			var u uint64
			if _, err := fmt.Sscanf(k, "%d", &u); err != nil {
				return fmt.Errorf("access: bad cluster occurrence key %q", k)
			}
			cl.occurrences[addr.LogicalAddr(u)] = hp
		}
		s.clusters[def.ID] = cl
	}
	return nil
}

func (s *System) findSortOrderDef(name string) (*catalog.SortOrderDef, bool) {
	for _, t := range s.schema.AtomTypes() {
		for _, d := range s.schema.SortOrdersFor(t.Name) {
			if d.Name == name {
				return d, true
			}
		}
	}
	return nil, false
}

func (s *System) findPartitionDef(name string) (*catalog.PartitionDef, bool) {
	for _, t := range s.schema.AtomTypes() {
		for _, d := range s.schema.PartitionsFor(t.Name) {
			if d.Name == name {
				return d, true
			}
		}
	}
	return nil, false
}

func (s *System) findClusterDef(name string) (*catalog.ClusterDef, bool) {
	for _, d := range s.schema.Clusters() {
		if d.Name == name {
			return d, true
		}
	}
	return nil, false
}

// Close checkpoints and releases all resources. It presses on through
// individual failures — a crashed fault-injected store must still release
// every goroutine and file handle — and reports them joined.
func (s *System) Close() error {
	if s.walStop != nil {
		close(s.walStop)
		<-s.walDone
		s.walStop = nil
	}
	var errs []error
	if err := s.Checkpoint(); err != nil {
		errs = append(errs, err)
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.pool.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := s.files.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
