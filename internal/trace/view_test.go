package trace

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// mixedView is a view over records of several blocks, some owned, and over
// plain spans between them: the shape a correlator's read hands out. It
// returns the view and, decoded independently of View.Decode, the spans it
// must read as.
func mixedView(t *testing.T, raw bool) (View, []*Span) {
	t.Helper()
	sources := [][]*Span{binarySpans(), encoderBatch(700, 3, true), nil, encoderBatch(300, 5000, false)}
	ownedIn := func(b, i int) bool { return (b+i)%3 == 0 }
	type item struct {
		blk *SpanBlock
		i   int
		s   *Span
	}
	var items []item
	var want []*Span
	for b, spans := range sources {
		blk, _, err := ParseSpanBlock(AppendSpanBlock(nil, spans, func(i int) bool { return ownedIn(b, i) }))
		if err != nil {
			t.Fatal(err)
		}
		decoded, owned, _, err := DecodeSpanBlock(blk.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for i := len(spans) - 1; i >= 0; i -= 1 + b { // some of each, not in record order
			items = append(items, item{blk: &blk, i: i})
			s := decoded[i]
			if raw && owned[i/64]&(1<<(i%64)) != 0 {
				s.ParentID = 0
			}
			want = append(want, s)
			if i%5 == 0 { // a live span between the records
				live := encoderBatch(1, uint64(9000+i), true)[0]
				items = append(items, item{s: live})
				want = append(want, live)
			}
		}
	}
	return View{Raw: raw, Walk: func(yield func(*SpanBlock, int, *Span) bool) {
		for _, it := range items {
			if !yield(it.blk, it.i, it.s) {
				return
			}
		}
	}}, want
}

// A streamed view is byte for byte the frame its decoded spans encode to —
// in both views, tenantless or not, empty or not, and with chunks small
// enough that records, tables and blob all cross a write — and Decode hands
// out exactly those spans.
func TestViewWriteBinaryIsTheDecodedFrame(t *testing.T) {
	defer func(n int) { viewChunk = n }(viewChunk)
	for _, chunk := range []int{viewChunk, 3 * SpanRecordSize, 1} {
		viewChunk = chunk
		for _, raw := range []bool{false, true} {
			for _, tenant := range []string{"", DefaultTenant, "team-a"} {
				view, want := mixedView(t, raw)
				for _, v := range []View{view, {Raw: raw}} {
					name := fmt.Sprintf("chunk %d raw %v tenant %q empty %v", chunk, raw, tenant, v.Walk == nil)
					v.Tenant = tenant
					var got bytes.Buffer
					if err := v.WriteBinary(&got); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if v.Walk == nil {
						want = nil
					}
					if frame := AppendBinaryFrameTenant(nil, tenant, want); !bytes.Equal(got.Bytes(), frame) {
						t.Fatalf("%s: streamed %d bytes, the decoded spans frame to %d", name, got.Len(), len(frame))
					}
					decoded := v.Trace()
					if decoded.Tenant != tenant || len(decoded.Spans) != len(want) {
						t.Fatalf("%s: decoded %d spans under %q, want %d", name, len(decoded.Spans), decoded.Tenant, len(want))
					}
					for i, s := range want {
						sameSpan(t, decoded.Spans[i], s)
					}
				}
			}
		}
	}
}

// failingWriter is a ResponseWriter whose body breaks after limit bytes,
// the way a client that hangs up does, and that notes any write attempted
// after that.
type failingWriter struct {
	*httptest.ResponseRecorder
	limit int
	after int // writes attempted once the body had failed
}

var errHungUp = errors.New("client hung up")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.limit < 0 {
		f.after++
		return 0, errHungUp
	}
	if len(p) > f.limit {
		n, _ := f.ResponseRecorder.Write(p[:f.limit])
		f.limit = -1
		return n, errHungUp
	}
	f.limit -= len(p)
	return f.ResponseRecorder.Write(p)
}

// A reply whose body fails partway ends at the failure: what reached the
// client is a prefix of the good reply and nothing else — no error text
// written behind it — in both encodings, whichever write fails.
func TestWriteViewStopsAtTheFirstFailedWrite(t *testing.T) {
	defer func(n int) { viewChunk = n }(viewChunk)
	viewChunk = 4 * SpanRecordSize // many writes, so that every kind of one can fail
	view, _ := mixedView(t, false)
	view.Tenant = "team-a"
	for _, accept := range []string{ContentTypeBinary, ContentTypeJSON} {
		req := httptest.NewRequest(http.MethodGet, "/api/trace", nil)
		req.Header.Set("Accept", accept)
		good := httptest.NewRecorder()
		WriteView(good, req, view)
		if good.Code != http.StatusOK || good.Body.Len() == 0 {
			t.Fatalf("%s: the good reply is %d with %d bytes", accept, good.Code, good.Body.Len())
		}
		for _, limit := range []int{0, 1, 9, 100, 4*SpanRecordSize + 3, good.Body.Len() / 2, good.Body.Len() - 1, good.Body.Len()} {
			w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), limit: limit}
			WriteView(w, req, view)
			body := w.Body.Bytes()
			if !bytes.HasPrefix(good.Body.Bytes(), body) {
				t.Fatalf("%s, failing after %d bytes: the %d bytes sent are not a prefix of the good reply", accept, limit, len(body))
			}
			if w.after != 0 {
				t.Fatalf("%s, failing after %d bytes: %d writes followed the failed one", accept, limit, w.after)
			}
			if got := w.Header().Get("Content-Type"); got != accept {
				t.Fatalf("%s, failing after %d bytes: Content-Type %q", accept, limit, got)
			}
		}
	}
}
