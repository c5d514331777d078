package rpc

import (
	"bytes"
	"testing"

	"gdn/internal/obs"
	"gdn/internal/wire"
)

// TestRequestFrameWithoutTraceTailRejected pins the request frame
// layout: every frame ends in the 16-byte trace tail, so a frame that
// stops after the body — the layout before trace propagation — is
// malformed, as is one with a partial tail.
func TestRequestFrameWithoutTraceTailRejected(t *testing.T) {
	const id, op = uint64(7), uint16(42)
	body := []byte("chunk request body")

	old := wire.GetWriter(0)
	defer old.Free()
	old.Uint64(id)
	old.Uint16(op)
	old.Bytes32(body)
	if _, _, err := decodeRequest(old.Bytes()); err == nil {
		t.Fatal("decodeRequest accepted a frame without the trace tail")
	}

	w := encodeRequest(id, op, body, obs.SpanContext{})
	defer w.Free()
	if want := old.Len() + traceTailLen; w.Len() != want {
		t.Fatalf("untraced request frame is %d bytes, want %d (body + tail)", w.Len(), want)
	}
	if _, _, err := decodeRequest(w.Bytes()[:w.Len()-1]); err == nil {
		t.Fatal("decodeRequest accepted a frame with a partial trace tail")
	}
	gotID, call, err := decodeRequest(w.Bytes())
	if err != nil {
		t.Fatalf("decodeRequest(untraced frame): %v", err)
	}
	if gotID != id || call.Op != op || !bytes.Equal(call.Body, body) || call.TC.Valid() {
		t.Fatalf("untraced frame decoded to id=%d op=%d body=%q tc=%+v", gotID, call.Op, call.Body, call.TC)
	}
}

// TestRequestFrameTraceRoundTrip checks the traced side of the same
// layout: a valid span context rides the 16-byte tail and survives
// encode/decode intact.
func TestRequestFrameTraceRoundTrip(t *testing.T) {
	tc := obs.SpanContext{Trace: 0xdeadbeefcafe, Span: 0x1234567890ab}
	body := []byte("traced body")

	w := encodeRequest(9, 3, body, tc)
	defer w.Free()

	untraced := encodeRequest(9, 3, body, obs.SpanContext{})
	defer untraced.Free()
	if w.Len() != untraced.Len() {
		t.Fatalf("traced frame is %d bytes, want the untraced frame's %d: both carry the tail",
			w.Len(), untraced.Len())
	}

	_, call, err := decodeRequest(w.Bytes())
	if err != nil {
		t.Fatalf("decodeRequest(traced frame): %v", err)
	}
	if call.TC != tc {
		t.Fatalf("trace context did not round-trip: got %+v, want %+v", call.TC, tc)
	}
	if !bytes.Equal(call.Body, body) {
		t.Fatalf("body = %q, want %q", call.Body, body)
	}
}
