// Package wire implements the workstation–host coupling of §4: PRIMA runs
// as a server; the application layer on the workstation talks to it over a
// set-oriented interface ("the set-oriented MAD interface is a major
// prerequisite to reduce communication overhead as far as possible") and
// keeps checked-out molecules in a local object buffer, writing them back at
// commit time ("checkout/checkin").
//
// The protocol is length-prefixed binary frames over TCP (codec.go has the
// layout): one request, one response. Atoms travel as the record images the
// access system stores, behind a per-connection type dictionary; the client
// renders them into MQL literals. Large molecule sets do not buffer on the
// server: a checkout response is a stream of frames, each carrying a chunk
// of molecules and a More flag; the final frame (More unset) carries the
// total count. The client reassembles the stream transparently, so callers
// still see one set-oriented round trip.
package wire

import (
	"errors"
	"fmt"

	"prima/internal/obs"
)

// Op is a request's operation code, one byte on the wire.
type Op uint8

// Op codes.
const (
	OpPing     Op = iota + 1
	OpExec        // run an MQL script
	OpCheckout    // run a SELECT, return whole molecules
	OpGetAtom     // fetch one atom (the chatty baseline)
	OpStats       // server metrics snapshot
	OpSlow        // retained slow-query traces (newest first)
	numOps
)

var opNames = [numOps]string{"unknown", "ping", "exec", "checkout", "getatom", "stats", "slow"}

func (o Op) String() string {
	if o >= numOps {
		o = 0
	}
	return opNames[o]
}

// Request is one client message.
type Request struct {
	Op   Op
	MQL  string
	Addr uint64
	// N bounds a slow request's result count (0 returns the whole ring).
	N int
}

// Response is one server message, as the client decodes it.
type Response struct {
	OK    bool
	Error string
	// Retryable marks an error response as safe to retry: the server
	// rejected the request before executing any of it (admission control,
	// drain). Clients may resend it verbatim — even non-idempotent ops like
	// Exec, since a shed request has no server-side effect.
	Retryable bool
	Message   string
	Count     int
	Inserted  []uint64
	Molecules []MoleculeJSON
	Atom      *AtomJSON
	// Metrics is the full registry snapshot (counters, gauges, per-stage
	// latency histograms) of a stats response — the same data the /metrics
	// endpoint serves, in structured form.
	Metrics *obs.MetricsSnapshot
	// Epoch is the snapshot epoch a checkout stream reads at: every molecule
	// of the stream reflects the database state as of that epoch, no matter
	// which DML commits while the stream drains.
	Epoch uint64
	// More marks a continuation frame: further frames of the same response
	// stream follow on the connection.
	More bool
	// TraceID identifies the server-side trace of this request, when the
	// server traced it (sampling hit, or a slow-query threshold is armed).
	// Quote it to the slow op or /debug/slow to find the full span tree.
	TraceID string
	// Traces carries retained trace snapshots on slow responses.
	Traces []*obs.TraceSnapshot
}

// MoleculeJSON is a checked-out molecule in the client's object buffer: the
// flat atom set grouped by type plus the root address (structure can be
// rebuilt client-side from the reference attributes if needed). The name
// predates the binary frames; the shape is what applications program against.
type MoleculeJSON struct {
	Root  uint64
	Atoms []AtomJSON
}

// AtomJSON is a checked-out atom. Values are rendered in MQL literal syntax,
// NULL attributes omitted, and are the caller's own: the object buffer keeps
// the atom's record image and renders it afresh for Local. The literals of
// one molecule are substrings of one arena string.
type AtomJSON struct {
	Addr   uint64
	Type   string
	Values map[string]string
}

// ErrFrameTooBig is returned when an encoded message exceeds the frame
// limit; nothing of it has been written, so the connection stays usable.
var ErrFrameTooBig = errors.New("wire: frame exceeds limit")

// ErrRemote wraps server-side failures surfaced to the client.
var ErrRemote = errors.New("wire: remote error")

// ErrOverloaded wraps retryable rejections: the server shed the request
// before executing any of it (admission queue full, connection cap, drain).
// It satisfies errors.Is(err, ErrRemote) too, so existing error handling
// keeps working; clients that distinguish it may retry with backoff.
var ErrOverloaded = fmt.Errorf("%w: overloaded", ErrRemote)

// err returns the error an unsuccessful response stands for, nil for OK.
func (r *Response) err() error {
	switch {
	case r.OK:
		return nil
	case r.Retryable:
		return fmt.Errorf("%w: %s", ErrOverloaded, r.Error)
	default:
		return fmt.Errorf("%w: %s", ErrRemote, r.Error)
	}
}
