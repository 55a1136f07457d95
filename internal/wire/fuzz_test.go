package wire

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"prima/internal/access/addr"
)

// Native fuzz targets for the two frame decoders. Each asserts that hostile
// bytes produce an error and never a panic, that decoding allocates in
// proportion to the frame and not to a count the frame merely claims, and
// that what decodes survives a round trip. The seed corpus under
// testdata/fuzz holds real frames of every op and the hand-built hostile
// frames of TestDecoderRejectsHostileFrames; CI runs each target for 20 s:
//
//	go test ./internal/wire -run '^$' -fuzz FuzzDecodeResponseFrame -fuzztime 20s
//	go test ./internal/wire -run '^$' -fuzz FuzzDecodeRequest -fuzztime 20s

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding a frame body may allocate. The structs around
// the smallest entries (an atom without attributes is four bytes on the wire
// and an AtomJSON with a map in memory) and a NULL rendered as "NULL, "
// inside a container set the factor; a count that is not backed by bytes of
// the frame would exceed any factor.
func allocBound(body []byte) uint64 { return 64*uint64(len(body)) + 64<<10 }

// realResponseFrames are response frame bodies as a server writes them.
func realResponseFrames(t testing.TB) [][]byte {
	kinds := kindsDB(t)
	scene := sceneDB(t)
	var frames [][]byte
	add := func(enc *encoder, r *reply) {
		frame, err := enc.response(r)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), frame[4:]...))
	}
	cube := mustSelect(t, scene, `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1`)
	stream := new(encoder)
	add(stream, &reply{OK: true, More: true, Epoch: 7, Molecules: cube})
	// The second frame of a stream relies on the dictionary of the first:
	// alone it is a frame with unknown type ordinals.
	add(stream, &reply{OK: true, Count: 2, Epoch: 7, TraceID: "1a2b-3", Molecules: cube})
	add(new(encoder), &reply{OK: true, Count: 9, Molecules: mustSelect(t, kinds, `SELECT ALL FROM owner-part`)})
	add(new(encoder), &reply{OK: true, Atom: cube[0].Root.Rec})
	add(new(encoder), &reply{OK: true, Count: 2, Inserted: []addr.LogicalAddr{addr.New(1, 1), addr.New(65535, 1<<47)}})
	add(new(encoder), &reply{OK: true, Message: "pong"})
	add(new(encoder), &reply{Error: "shed: 4 requests in flight", Retryable: true})
	add(new(encoder), &reply{OK: true, Message: "wal checkpoint failing: injected sync fault", Diag: &diagPayload{Metrics: scene.Metrics()}})
	return frames
}

func FuzzDecodeResponseFrame(f *testing.F) {
	for _, frame := range realResponseFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte(goodNoteFrame()))
	for _, frame := range hostileResponseFrames() {
		f.Add([]byte(frame))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFrame {
			return // readFrameLen refuses it before a decoder sees it
		}
		var resp Response
		var err error
		dec := decoder{idents: map[string]string{}, hold: true} // as a client decodes a checkout
		if got, max := allocated(func() { err = dec.response(body, &resp) }), allocBound(body); got > max {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(body), got, max)
		}
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("error is not a malformed-frame error: %v", err)
			}
			return
		}
		// Decoding is a function of the bytes and the dictionary alone.
		var again Response
		if err := (&decoder{}).response(body, &again); err != nil || !reflect.DeepEqual(again, resp) {
			t.Fatalf("second decode differs: %v\n got %+v\nwant %+v", err, again, resp)
		}
		// The head survives encode and decode. (The payload does not pass
		// back through the encoder, which takes the engine's molecules;
		// TestCodecMatchesReference pins it against the reference renderer.)
		head := reply{OK: resp.OK, More: resp.More, Retryable: resp.Retryable, Error: resp.Error,
			Message: resp.Message, TraceID: resp.TraceID, Count: resp.Count, Epoch: resp.Epoch}
		for _, a := range resp.Inserted {
			head.Inserted = append(head.Inserted, addr.LogicalAddr(a))
		}
		frame, err := new(encoder).response(&head)
		if err != nil {
			t.Fatal(err)
		}
		var back Response
		if err := (&decoder{}).response(frame[4:], &back); err != nil {
			t.Fatalf("re-encoded head does not decode: %v", err)
		}
		resp.Molecules, resp.Atom, resp.Metrics, resp.Traces = nil, nil, nil, nil
		if !reflect.DeepEqual(back, resp) {
			t.Fatalf("head round trip:\n got %+v\nwant %+v", back, resp)
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []Request{
		{Op: OpPing},
		{Op: OpExec, MQL: `INSERT INTO solid (solid_no, description) VALUES (99, 'it''s')`},
		{Op: OpCheckout, MQL: `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`},
		{Op: OpGetAtom, Addr: uint64(addr.New(3, 1<<40))},
		{Op: OpStats},
		{Op: OpSlow, N: 10},
	} {
		frame, err := appendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	for _, body := range hostileRequests {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFrame {
			return
		}
		var req Request
		var err error
		if got, max := allocated(func() { err = decodeRequest(body, &req) }), allocBound(body); got > max {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(body), got, max)
		}
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("error is not a malformed-frame error: %v", err)
			}
			return
		}
		frame, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := decodeRequest(frame[4:], &back); err != nil || back != req {
			t.Fatalf("round trip of %+v: %+v, %v", req, back, err)
		}
	})
}
