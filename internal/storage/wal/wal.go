package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"prima/internal/obs"
	"prima/internal/storage/device"
)

// Log framing constants.
const (
	// blockSize is the device block size of log segments: always the largest
	// file-manager block, independent of the database page size.
	blockSize = device.B8K
	// DefaultSegmentBlocks sizes a log segment (512 x 8K = 4 MiB).
	DefaultSegmentBlocks = 512
	// DefaultGroupCommitBatch caps how many concurrent commit requests one
	// fsync absorbs before the flusher stops collecting.
	DefaultGroupCommitBatch = 64
	// DefaultGroupCommitMaxWait bounds how long the flusher holds the first
	// committer while collecting a batch.
	DefaultGroupCommitMaxWait = 200 * time.Microsecond
	// DefaultCheckpointBytes is the log-growth threshold that nudges the
	// owner to take a checkpoint (4 MiB).
	DefaultCheckpointBytes = 4 << 20

	metaName  = "wal.meta"
	metaMagic = 0x314c5741414d4952 // "PRIMAAWL1" truncated, little-endian
)

// Errors returned by the log.
var (
	ErrClosed       = errors.New("wal: log closed")
	ErrNotRecovered = errors.New("wal: log not positioned (Recover must run first)")
	ErrTooLarge     = errors.New("wal: record exceeds segment capacity")
)

// Options tunes a Log.
type Options struct {
	// SegmentBlocks is the fixed capacity of one log segment in 8K blocks
	// (default DefaultSegmentBlocks).
	SegmentBlocks int
	// GroupCommitMaxWait bounds how long the background flusher may hold the
	// first committer of a batch while waiting for companions (default
	// DefaultGroupCommitMaxWait; negative disables waiting — the flusher
	// still absorbs whatever is already queued).
	GroupCommitMaxWait time.Duration
	// GroupCommitBatch is the batch size that triggers an immediate flush
	// (default DefaultGroupCommitBatch).
	GroupCommitBatch int
	// CheckpointBytes is the number of appended log bytes after which the
	// log nudges its owner (via Nudge) to take a checkpoint (default
	// DefaultCheckpointBytes; negative disables nudging).
	CheckpointBytes int64
	// AppendNs, FsyncNs and FlushNs, when set, observe the latency of each
	// record append (including lock wait), each device fsync, and each
	// group-commit flush round, in nanoseconds. Passed through Options —
	// rather than a setter — so they are in place before the flusher
	// goroutine starts.
	AppendNs *obs.Histogram
	FsyncNs  *obs.Histogram
	FlushNs  *obs.Histogram
}

func (o *Options) fill() {
	if o.SegmentBlocks <= 0 {
		o.SegmentBlocks = DefaultSegmentBlocks
	}
	if o.GroupCommitMaxWait == 0 {
		o.GroupCommitMaxWait = DefaultGroupCommitMaxWait
	}
	if o.GroupCommitBatch <= 0 {
		o.GroupCommitBatch = DefaultGroupCommitBatch
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = DefaultCheckpointBytes
	}
}

// Stats counts log activity.
type Stats struct {
	// Appends is the number of records appended.
	Appends uint64
	// Bytes is the number of log bytes appended (frames plus padding).
	Bytes uint64
	// Syncs is the number of device Sync calls issued by the log (the fsync
	// count group commit amortizes).
	Syncs uint64
	// Commits is the number of durable top-level commits.
	Commits uint64
	// Batches is the number of group-commit flush rounds; Commits/Batches is
	// the amortization factor.
	Batches uint64
	// Checkpoints is the number of completed checkpoints.
	Checkpoints uint64
	// Recoveries counts Recover passes that found records to replay.
	Recoveries uint64
}

// commitReq is one transaction waiting for its commit record to be durable.
type commitReq struct {
	done chan error
}

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use once Recover has positioned the log.
type Log struct {
	files *device.Manager
	opts  Options

	segBytes uint64

	mu        sync.Mutex
	ready     bool
	closed    bool
	gen       uint64            // log incarnation (mixed into record CRCs)
	start     uint64            // replay starts here (meta-recorded)
	floor     uint64            // lowest segment index that may still exist (meta-recorded)
	appendEnd uint64            // next append offset
	flushed   uint64            // durable prefix end
	buf       []byte            // unflushed bytes from bufBase (block-aligned)
	bufBase   uint64            // stream offset of buf[0]
	active    map[uint64]uint64 // txid -> first LSN, for checkpointing
	inflight  map[uint64]int    // start LSN -> operations in flight from it
	segs      map[uint64]device.Device
	meta      device.Device
	scratch   []byte // payload encode buffer
	blockBuf  []byte // one-block write staging buffer
	sinceCp   int64  // bytes appended since the last completed checkpoint
	stats     Stats

	commitCh    chan commitReq
	stopCh      chan struct{}
	flusherDone chan struct{}
	nudgeCh     chan struct{}
	stopOnce    sync.Once
}

// Open attaches a log to the file manager. The returned log is not yet
// positioned: the owner must call Recover (with an applier; a trivial one on
// a fresh database) before appending, and should complete a checkpoint
// before accepting new work so the recovered state and the bumped generation
// become durable.
func Open(files *device.Manager, opts Options) (*Log, error) {
	opts.fill()
	l := &Log{
		files:       files,
		opts:        opts,
		segBytes:    uint64(opts.SegmentBlocks) * blockSize,
		active:      make(map[uint64]uint64),
		inflight:    make(map[uint64]int),
		segs:        make(map[uint64]device.Device),
		blockBuf:    make([]byte, blockSize),
		gen:         1,
		commitCh:    make(chan commitReq, 4*opts.GroupCommitBatch),
		stopCh:      make(chan struct{}),
		flusherDone: make(chan struct{}),
		nudgeCh:     make(chan struct{}, 1),
	}
	meta, err := files.Open(metaName, device.B512)
	if err != nil {
		return nil, fmt.Errorf("wal: open meta: %w", err)
	}
	l.meta = meta
	if err := l.readMeta(); err != nil {
		return nil, err
	}
	go l.flusher()
	return l, nil
}

// readMeta loads {generation, start, floor} from the meta device. A missing
// or invalid meta block means a fresh log (generation 1, start 0) — which is
// also what a crash before the very first checkpoint resolves to.
func (l *Log) readMeta() error {
	if l.meta.Blocks() == 0 {
		return nil
	}
	buf := make([]byte, device.B512)
	if err := l.meta.ReadBlock(0, buf); err != nil {
		return fmt.Errorf("wal: read meta: %w", err)
	}
	if binary.LittleEndian.Uint64(buf[0:]) != metaMagic {
		return nil
	}
	gen := binary.LittleEndian.Uint64(buf[8:])
	start := binary.LittleEndian.Uint64(buf[16:])
	floor := binary.LittleEndian.Uint64(buf[24:])
	sum := binary.LittleEndian.Uint32(buf[32:])
	if crcBytes(buf[:32]) != sum {
		return nil
	}
	l.gen = gen
	l.start = start
	l.floor = floor
	return nil
}

// writeMetaLocked durably records {generation, start, floor}. This is the
// commit point of a checkpoint: once the meta block is synced, replay begins
// at the new start.
func (l *Log) writeMetaLocked() error {
	buf := make([]byte, device.B512)
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], l.gen)
	binary.LittleEndian.PutUint64(buf[16:], l.start)
	binary.LittleEndian.PutUint64(buf[24:], l.floor)
	binary.LittleEndian.PutUint32(buf[32:], crcBytes(buf[:32]))
	if l.meta.Blocks() == 0 {
		if _, err := l.meta.Extend(1); err != nil {
			return fmt.Errorf("wal: extend meta: %w", err)
		}
	}
	if err := l.meta.WriteBlock(0, buf); err != nil {
		return fmt.Errorf("wal: write meta: %w", err)
	}
	if err := l.meta.Sync(); err != nil {
		return fmt.Errorf("wal: sync meta: %w", err)
	}
	l.stats.Syncs++
	return nil
}

func crcBytes(b []byte) uint32 {
	return recCRC(0, 0, b)
}

// segName names the n-th log segment file.
func segName(idx uint64) string { return fmt.Sprintf("wal_%06d.log", idx) }

// segment returns (opening on demand) the device of segment idx.
func (l *Log) segment(idx uint64) (device.Device, error) {
	if d, ok := l.segs[idx]; ok {
		return d, nil
	}
	d, err := l.files.Open(segName(idx), blockSize)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %d: %w", idx, err)
	}
	l.segs[idx] = d
	return d, nil
}

// Append adds a record to the log buffer and returns its LSN (the record's
// stream offset). The record is not durable until the log is flushed past
// it — by Commit, FlushTo, or a checkpoint.
func (l *Log) Append(r *Record) (uint64, error) {
	defer l.opts.AppendNs.ObserveSince(time.Now())
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r *Record) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if !l.ready {
		return 0, ErrNotRecovered
	}
	l.scratch = appendPayload(l.scratch[:0], r)
	payload := l.scratch
	need := uint64(recHeaderSize + len(payload))
	if need > l.segBytes {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, need)
	}
	if rem := l.segBytes - l.appendEnd%l.segBytes; need > rem {
		l.padLocked(rem)
	}
	lsn := l.appendEnd
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], recCRC(l.gen, lsn, payload))
	// The tail holds every record since the last flush, and autocommit DML
	// forces none, so a bulk load grows it to megabytes. append would grow it
	// by a quarter at a time, copying and discarding five times its final
	// size; doubling bounds that at twice.
	if n := len(l.buf) + int(need); n > cap(l.buf) {
		l.buf = append(make([]byte, 0, max(2*cap(l.buf), n)), l.buf...)
	}
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.appendEnd += need
	l.sinceCp += int64(need)
	l.stats.Appends++
	l.stats.Bytes += need

	if r.TxID != 0 {
		switch r.Kind {
		case RecCommit, RecAbort:
			delete(l.active, r.TxID)
		case RecInsert, RecUpdate, RecDelete:
			if _, ok := l.active[r.TxID]; !ok {
				l.active[r.TxID] = lsn
			}
		}
	}
	if l.opts.CheckpointBytes > 0 && l.sinceCp >= l.opts.CheckpointBytes {
		select {
		case l.nudgeCh <- struct{}{}:
		default:
		}
	}
	return lsn, nil
}

// padLocked fills the remainder of the current segment: an 8-byte jump
// marker (when it fits) followed by zeros, advancing the append position to
// the next segment boundary.
func (l *Log) padLocked(rem uint64) {
	l.stats.Bytes += rem
	if rem >= recHeaderSize {
		var hdr [recHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[4:], padMagic)
		l.buf = append(l.buf, hdr[:]...)
		rem -= recHeaderSize
		l.appendEnd += recHeaderSize
	}
	for rem > 0 {
		n := rem
		if n > blockSize {
			n = blockSize
		}
		l.buf = append(l.buf, make([]byte, n)...)
		l.appendEnd += n
		rem -= n
	}
}

// flushLocked writes every buffered byte to its segment blocks and syncs the
// touched devices; on return the whole log up to appendEnd is durable.
func (l *Log) flushLocked() error {
	end := l.appendEnd
	if l.flushed >= end {
		return nil
	}
	off := l.bufBase
	var toSync []device.Device
	for off < end {
		segIdx := off / l.segBytes
		segStart := segIdx * l.segBytes
		upTo := segStart + l.segBytes
		if upTo > end {
			upTo = end
		}
		d, err := l.segment(segIdx)
		if err != nil {
			return err
		}
		firstBlk := int((off - segStart) / blockSize)
		lastBlk := int((upTo - segStart + blockSize - 1) / blockSize) // exclusive
		if have := d.Blocks(); have < lastBlk {
			if _, err := d.Extend(lastBlk - have); err != nil {
				return fmt.Errorf("wal: extend segment %d: %w", segIdx, err)
			}
		}
		for blk := firstBlk; blk < lastBlk; blk++ {
			bo := segStart + uint64(blk)*blockSize // stream offset of block start
			n := copy(l.blockBuf, l.buf[bo-l.bufBase:end-l.bufBase])
			for i := n; i < blockSize; i++ {
				l.blockBuf[i] = 0
			}
			if err := d.WriteBlock(blk, l.blockBuf); err != nil {
				return fmt.Errorf("wal: write segment %d block %d: %w", segIdx, blk, err)
			}
		}
		toSync = append(toSync, d)
		off = upTo
	}
	for _, d := range toSync {
		syncStart := time.Now()
		if err := d.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.opts.FsyncNs.ObserveSince(syncStart)
		l.stats.Syncs++
	}
	l.flushed = end
	// Keep only the partial tail block: it will be rewritten (zero-padded
	// again) when further appends land in it.
	tailStart := end - end%blockSize
	keep := end - tailStart
	copy(l.buf, l.buf[tailStart-l.bufBase:end-l.bufBase])
	l.buf = l.buf[:keep]
	l.bufBase = tailStart
	return nil
}

// FlushTo makes the log durable up to (at least) lsn. It is the buffer
// pool's WAL-before-page gate: a dirty page may reach its segment only after
// the records covering its changes are on stable storage.
func (l *Log) FlushTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// An already-satisfied gate succeeds even on a closed log: the records are
	// durable, so writeback of the covered pages (e.g. the pool closing after
	// the log) must not be refused.
	if lsn <= l.flushed {
		return nil
	}
	if l.closed {
		return ErrClosed
	}
	return l.flushLocked()
}

// WriteLSN returns the current append position — the LSN a freshly dirtied
// page must record as its pageLSN.
func (l *Log) WriteLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendEnd
}

// Durable reports the durable prefix end.
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// Commit appends a commit record for txid and blocks until it is on stable
// storage. Concurrent commits are absorbed by the background flusher into
// shared fsyncs (group commit).
func (l *Log) Commit(txid uint64) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if _, err := l.appendLocked(&Record{Kind: RecCommit, TxID: txid}); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	req := commitReq{done: make(chan error, 1)}
	select {
	case l.commitCh <- req:
	case <-l.stopCh:
		return ErrClosed
	}
	select {
	case err := <-req.done:
		if err == nil {
			l.mu.Lock()
			l.stats.Commits++
			l.mu.Unlock()
		}
		return err
	case <-l.stopCh:
		return ErrClosed
	}
}

// AppendAbort appends an abort record for txid without forcing the log:
// abort durability is not required — a lost abort record simply makes the
// transaction a recovery loser, and undoing its (forward plus compensation)
// records reproduces the same rolled-back state.
func (l *Log) AppendAbort(txid uint64) error {
	_, err := l.Append(&Record{Kind: RecAbort, TxID: txid})
	return err
}

// flusher is the group-commit daemon: it takes the first waiting committer,
// collects companions until the batch is full or the max wait elapses, then
// flushes the whole log once and releases the batch.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	batch := make([]commitReq, 0, l.opts.GroupCommitBatch)
	for {
		var first commitReq
		select {
		case first = <-l.commitCh:
		case <-l.stopCh:
			l.drainCommitCh()
			return
		}
		batch = append(batch[:0], first)
		if l.opts.GroupCommitMaxWait > 0 {
			timer := time.NewTimer(l.opts.GroupCommitMaxWait)
		collect:
			for len(batch) < l.opts.GroupCommitBatch {
				select {
				case r := <-l.commitCh:
					batch = append(batch, r)
				case <-timer.C:
					break collect
				case <-l.stopCh:
					break collect
				}
			}
			timer.Stop()
		} else {
		drain:
			for len(batch) < l.opts.GroupCommitBatch {
				select {
				case r := <-l.commitCh:
					batch = append(batch, r)
				default:
					break drain
				}
			}
		}
		flushStart := time.Now()
		l.mu.Lock()
		err := l.flushLocked()
		if err == nil {
			l.stats.Batches++
		}
		l.mu.Unlock()
		l.opts.FlushNs.ObserveSince(flushStart)
		for _, r := range batch {
			r.done <- err
		}
	}
}

func (l *Log) drainCommitCh() {
	for {
		select {
		case r := <-l.commitCh:
			r.done <- ErrClosed
		default:
			return
		}
	}
}

// Nudge returns a channel that receives a signal whenever the log has grown
// past Options.CheckpointBytes since the last checkpoint. The owner runs its
// checkpoint loop off this channel.
func (l *Log) Nudge() <-chan struct{} { return l.nudgeCh }

// OpBegin registers an in-flight logical mutation and returns its start, the
// token OpEnd takes. A fuzzy checkpoint must not advance the replay start
// past the position at which any still-running operation began: the
// operation's records can precede the checkpoint while its page writes land
// after the checkpoint's page flush, so those records must survive
// truncation for redo. The owner brackets every mutating entry point
// (including autocommit ones, which the active-transaction table never sees)
// with OpBegin/OpEnd.
func (l *Log) OpBegin() uint64 {
	l.mu.Lock()
	start := l.appendEnd
	l.inflight[start]++
	l.mu.Unlock()
	return start
}

// OpEnd ends the operation OpBegin registered at start.
func (l *Log) OpEnd(start uint64) {
	l.mu.Lock()
	if l.inflight[start]--; l.inflight[start] <= 0 {
		delete(l.inflight, start)
	}
	l.mu.Unlock()
}

// CheckpointToken snapshots the state a fuzzy checkpoint began with.
type CheckpointToken struct {
	active map[uint64]uint64
	// beginLSN pins the replay start: no record at or above it existed when
	// the checkpoint began, so everything the checkpoint's page flush can
	// have missed — mutations logged after this point, and in-flight
	// operations' earlier records via the min below — stays replayable.
	beginLSN uint64
}

// BeginCheckpoint captures the active-transaction table and the append
// position (lowered to the start of the oldest in-flight operation). The
// owner then makes its base state durable (flush pages, write catalogs) and
// calls EndCheckpoint.
func (l *Log) BeginCheckpoint() *CheckpointToken {
	l.mu.Lock()
	defer l.mu.Unlock()
	act := make(map[uint64]uint64, len(l.active))
	for k, v := range l.active {
		act[k] = v
	}
	pin := l.appendEnd
	for start := range l.inflight {
		pin = min(pin, start)
	}
	return &CheckpointToken{active: act, beginLSN: pin}
}

// EndCheckpoint completes a fuzzy checkpoint: it appends the checkpoint
// record, forces the whole log, advances the replay start to the oldest LSN
// still needed (never past the position captured at BeginCheckpoint — a
// transaction that began and committed during the checkpoint dirtied pages
// the checkpoint's flush never saw, and its records must survive for redo —
// and no further than the first LSN of any live transaction), durably
// rewrites the meta block, and drops log segments that fell entirely behind
// the new start.
func (l *Log) EndCheckpoint(cp *CheckpointToken) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.appendLocked(&Record{Kind: RecCheckpoint, Active: cp.active}); err != nil {
		return err
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	start := cp.beginLSN
	for _, first := range cp.active {
		if first < start {
			start = first
		}
	}
	// Transactions that began between BeginCheckpoint and now also pin the
	// replay start: their records must survive truncation for undo.
	for _, first := range l.active {
		if first < start {
			start = first
		}
	}
	l.start = start
	if err := l.writeMetaLocked(); err != nil {
		return err
	}
	l.sinceCp = 0
	l.stats.Checkpoints++
	l.recycleLocked(start / l.segBytes)
	return nil
}

// recycleLocked removes segment files below firstLive, sweeping upward from
// the persisted floor so segments whose removal once failed — even in a
// previous incarnation, where they are no longer in l.segs — are retried
// until the disk space is actually reclaimed. The floor only advances past
// confirmed removals; it becomes durable with the next checkpoint's meta
// write (a crash in between merely repeats already-idempotent removes).
func (l *Log) recycleLocked(firstLive uint64) {
	for idx := l.floor; idx < firstLive; idx++ {
		if err := l.files.Remove(segName(idx)); err != nil {
			return
		}
		delete(l.segs, idx)
		l.floor = idx + 1
	}
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close stops the group-commit flusher and writes out any buffered records
// (without waiting for commit acknowledgements: callers still blocked in
// Commit receive ErrClosed). The segment devices stay with the manager.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stopCh) })
	<-l.flusherDone
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if l.ready {
		err = l.flushLocked()
	}
	l.closed = true
	return err
}
