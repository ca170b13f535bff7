package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"xsp/internal/vclock"
)

// binarySpans builds a batch exercising every encoded field.
func binarySpans() []*Span {
	s1 := &Span{ID: 1, Level: LevelApplication, Name: "evaluate", Source: "xsp-app", Begin: 0, End: 100}
	s2 := &Span{ID: 2, ParentID: 1, Level: LevelModel, Name: "model_prediction", Source: "xsp-model", Begin: 5, End: 90}
	s3 := &Span{ID: 3, Level: LevelKernel, Kind: KindLaunch, Name: "cudaLaunchKernel", Source: "cupti", Begin: 10, End: 12, CorrelationID: 77}
	s4 := &Span{ID: 4, Level: LevelKernel, Kind: KindExec, Name: "volta_sgemm", Source: "cupti", Begin: 13, End: 40, CorrelationID: 77}
	s4.SetTag("stream", "3")
	s4.SetMetric("dram_read_bytes", 4096)
	return []*Span{s1, s2, s3, s4}
}

func sameSpan(t *testing.T, got, want *Span) {
	t.Helper()
	if got.ID != want.ID || got.ParentID != want.ParentID || got.CorrelationID != want.CorrelationID ||
		got.Begin != want.Begin || got.End != want.End || got.Level != want.Level || got.Kind != want.Kind ||
		got.Name != want.Name || got.Source != want.Source {
		t.Fatalf("span %d round-tripped to %+v, want %+v", want.ID, got, want)
	}
	if len(got.Tags) != len(want.Tags) || len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("span %d tags/metrics %d/%d, want %d/%d", want.ID, len(got.Tags), len(got.Metrics), len(want.Tags), len(want.Metrics))
	}
	// Entry by entry: the order is part of what a span holds.
	if !slices.Equal(got.Tags, want.Tags) {
		t.Fatalf("span %d tags %v, want %v", want.ID, got.Tags, want.Tags)
	}
	for i, m := range want.Metrics {
		// Bit equality, so NaN-valued metrics (fuzz inputs) compare equal.
		if g := got.Metrics[i]; g.Key != m.Key || math.Float64bits(g.Value) != math.Float64bits(m.Value) {
			t.Fatalf("span %d metric %d = %v, want %v", want.ID, i, g, m)
		}
	}
}

// spanBlockEncoder is the encoder AppendSpanBlock replaced, kept as its
// oracle: four private buffers grown from zero, copied into the output at
// the end. Same layout, same intern order, so the same bytes.
type spanBlockEncoder struct {
	recs []byte
	tags []byte
	mets []byte
	blob []byte
	pos  map[string]uint32 // interned blob offsets: names and sources repeat heavily
	n    uint32
	tagN uint32
	metN uint32
}

func (e *spanBlockEncoder) intern(s string) (off, n uint32) {
	if e.pos == nil {
		e.pos = make(map[string]uint32)
	}
	if off, ok := e.pos[s]; ok {
		return off, uint32(len(s))
	}
	off = uint32(len(e.blob))
	e.pos[s] = off
	e.blob = append(e.blob, s...)
	return off, uint32(len(s))
}

func (e *spanBlockEncoder) add(s *Span, owned bool) {
	var rec [SpanRecordSize]byte
	le := binary.LittleEndian
	le.PutUint64(rec[0:], s.ID)
	le.PutUint64(rec[8:], s.ParentID)
	le.PutUint64(rec[16:], s.CorrelationID)
	le.PutUint64(rec[24:], uint64(s.Begin))
	le.PutUint64(rec[32:], uint64(s.End))
	le.PutUint32(rec[40:], uint32(int32(s.Level)))
	rec[44] = byte(s.Kind)
	if owned {
		rec[45] |= flagOwned
	}
	off, n := e.intern(s.Name)
	le.PutUint32(rec[48:], off)
	le.PutUint32(rec[52:], n)
	off, n = e.intern(s.Source)
	le.PutUint32(rec[56:], off)
	le.PutUint32(rec[60:], n)
	le.PutUint32(rec[64:], e.tagN)
	le.PutUint32(rec[68:], uint32(len(s.Tags)))
	for _, tag := range s.Tags {
		var ent [16]byte
		off, n = e.intern(tag.Key)
		le.PutUint32(ent[0:], off)
		le.PutUint32(ent[4:], n)
		off, n = e.intern(tag.Value)
		le.PutUint32(ent[8:], off)
		le.PutUint32(ent[12:], n)
		e.tags = append(e.tags, ent[:]...)
		e.tagN++
	}
	le.PutUint32(rec[72:], e.metN)
	le.PutUint32(rec[76:], uint32(len(s.Metrics)))
	for _, m := range s.Metrics {
		var ent [16]byte
		off, n = e.intern(m.Key)
		le.PutUint32(ent[0:], off)
		le.PutUint32(ent[4:], n)
		le.PutUint64(ent[8:], math.Float64bits(m.Value))
		e.mets = append(e.mets, ent[:]...)
		e.metN++
	}
	e.recs = append(e.recs, rec[:]...)
	e.n++
}

// appendTo serializes the accumulated block onto buf.
func (e *spanBlockEncoder) appendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, e.n)
	buf = append(buf, e.recs...)
	buf = binary.LittleEndian.AppendUint32(buf, e.tagN)
	buf = append(buf, e.tags...)
	buf = binary.LittleEndian.AppendUint32(buf, e.metN)
	buf = append(buf, e.mets...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.blob)))
	buf = append(buf, e.blob...)
	return buf
}

// appendSpanBlockByCopy is AppendSpanBlock as the copying encoder did it.
func appendSpanBlockByCopy(buf []byte, spans []*Span, owned func(i int) bool) []byte {
	var e spanBlockEncoder
	for i, s := range spans {
		if s == nil {
			continue
		}
		e.add(s, owned != nil && owned(i))
	}
	return e.appendTo(buf)
}

// AppendSpanBlockByCopy hands the oracle to the external benchmark file.
var AppendSpanBlockByCopy = appendSpanBlockByCopy

// encoderBatch builds n spans over a handful of repeating names and
// sources. With multi false every span has at most one tag and one metric;
// with multi true some spans carry several of each.
func encoderBatch(n int, seed uint64, multi bool) []*Span {
	names := []string{"layer", "cudaLaunchKernel", "synthetic_kernel", "MemcpyHtoD", ""}
	spans := make([]*Span, n)
	for i := range spans {
		k := seed + uint64(i)
		s := &Span{
			ID: k + 1, ParentID: k % 3, CorrelationID: k % 7,
			Begin: vclock.Time(3 * k), End: vclock.Time(3*k + k%11),
			Level: Level(k % 5), Kind: Kind(k % 3), Name: names[k%5], Source: names[(k/5)%5],
		}
		if k%2 == 0 {
			s.SetTag("layer_index", names[k%4])
		}
		if k%3 == 0 {
			s.SetMetric("bytes", float64(k)*1.5)
		}
		if multi && k%4 == 0 {
			s.SetTag("layer_type", "Conv2D")
			s.SetTag("layer_shape", "1x64")
			s.SetMetric("flop_count_sp", float64(k))
			s.SetMetric("dram_read_bytes", 4096)
		}
		spans[i] = s
	}
	return spans
}

// TestAppendSpanBlockMatchesReference holds the in-place encoder to the
// copying one it replaced: the same bytes, the same spans, and none of the
// ways writing in place can go wrong — dirty spare capacity showing through, a pooled
// scratch aliased by a returned block, nil spans shifting the owned index.
func TestAppendSpanBlockMatchesReference(t *testing.T) {
	ownedIn := func(i int) bool { return i%3 == 1 }
	withNils := encoderBatch(300, 9, false)
	for i := range withNils {
		if i%7 == 2 {
			withNils[i] = nil
		}
	}
	exact := map[string][]*Span{
		"empty":       nil,
		"every field": binarySpans(),
		"one span":    encoderBatch(1, 1, false),
		"batch":       encoderBatch(1500, 3, false),
		"multi-entry": encoderBatch(800, 5, true),
		"nil spans":   withNils,
	}
	for name, spans := range exact {
		for _, owned := range []func(int) bool{nil, ownedIn} {
			prefix := []byte("prefix")
			want := appendSpanBlockByCopy(prefix, spans, owned)
			if got := AppendSpanBlock(prefix, spans, owned); !bytes.Equal(got, want) {
				t.Fatalf("%s: in-place encoding differs from the reference (%d vs %d bytes)", name, len(got), len(want))
			}
			// Spare capacity is not zero: every byte of a record, flags and
			// padding included, has to be written.
			dirty := bytes.Repeat([]byte{0xFF}, 2*len(want))[:len(prefix)]
			copy(dirty, prefix)
			if got := AppendSpanBlock(dirty, spans, owned); !bytes.Equal(got, want) {
				t.Fatalf("%s: encoding into 0xFF-filled spare capacity differs from encoding into a fresh buffer", name)
			}
		}
	}

	// owned(i) is indexed by input position, nil spans counted.
	got, ownedOut, _, err := DecodeSpanBlock(AppendSpanBlock(nil, withNils, ownedIn))
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for i, s := range withNils {
		if s == nil {
			continue
		}
		sameSpan(t, got[at], s)
		if is := ownedOut[at/64]&(1<<(at%64)) != 0; is != ownedIn(i) {
			t.Fatalf("input span %d (record %d) owned=%v, want %v", i, at, is, ownedIn(i))
		}
		at++
	}
	if at != len(got) {
		t.Fatalf("decoded %d spans, encoded %d non-nil ones", len(got), at)
	}

	// Several tags and metrics on a span come back as they went in.
	multi := encoderBatch(800, 5, true)
	a, _, _, err := DecodeSpanBlock(AppendSpanBlock(nil, multi, ownedIn))
	if err != nil || len(a) != len(multi) {
		t.Fatalf("multi-entry batch: decoded %d of %d spans: %v", len(a), len(multi), err)
	}
	for i := range multi {
		sameSpan(t, a[i], multi[i])
	}

	// The scratch goes back to the pool: the next encoding must not reach
	// the bytes this one returned.
	first := AppendSpanBlock(nil, multi, nil)
	saved := bytes.Clone(first)
	_ = AppendSpanBlock(nil, encoderBatch(2000, 77, true), ownedIn)
	if !bytes.Equal(first, saved) {
		t.Fatal("a later encoding changed the bytes an earlier one returned: the block aliases the pooled scratch")
	}

	// Concurrent encoders each get their own scratch (run under -race).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spans := encoderBatch(200+50*g, uint64(1000*g), false)
			want := appendSpanBlockByCopy(nil, spans, ownedIn)
			var buf []byte
			for round := 0; round < 20; round++ {
				if buf = AppendSpanBlock(buf[:0], spans, ownedIn); !bytes.Equal(buf, want) {
					t.Errorf("goroutine %d round %d: encoding differs from the reference", g, round)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A scratch in steady use never leaves a sync.Pool, so one grown by a huge
// block must not go back: the next 1k-span record would keep it alive.
func TestAppendSpanBlockDropsOversizedScratch(t *testing.T) {
	huge := &Span{ID: 1, Name: strings.Repeat("x", maxPooledScratch+1)}
	if _, _, _, err := DecodeSpanBlock(AppendSpanBlock(nil, []*Span{huge}, nil)); err != nil {
		t.Fatal(err)
	}
	e := blockScratchPool.Get().(*blockScratch)
	if got := cap(e.tags) + cap(e.mets) + cap(e.blob); got > maxPooledScratch {
		t.Fatalf("the pool handed back a scratch of %d bytes: over the %d it may keep", got, maxPooledScratch)
	}
	if len(e.tags)+len(e.mets)+len(e.blob)+len(e.pos) != 0 {
		t.Fatal("a pooled scratch was not reset")
	}
	blockScratchPool.Put(e)
}

// TestDecodeBinaryShortBodyAllocatesWhatItReads: a frame header is a
// claim. Thirteen bytes declaring a gigabyte must fail as a short payload
// having allocated about what arrived, not what was declared.
func TestDecodeBinaryShortBodyAllocatesWhatItReads(t *testing.T) {
	frame := hostileLengthFrame()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := DecodeBinary(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if tr != nil || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("decoded %v, %v: want no trace and ErrBadFrame", tr, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Fatalf("a %d-byte body declaring %d payload bytes allocated %d bytes", len(frame), maxFramePayload, grew)
	}

	// Past the first MiB the buffer follows the bytes: a large honest frame
	// still decodes whole.
	big := encoderBatch(40_000, 1, false)
	honest := AppendBinaryFrameTenant(nil, "", big)
	if len(honest) < 2<<20 {
		t.Fatalf("frame of %d bytes does not reach past the up-front allocation", len(honest))
	}
	tr, err = DecodeBinary(bytes.NewReader(honest))
	if err != nil || len(tr.Spans) != len(big) {
		t.Fatalf("large frame: %v", err)
	}
	if _, err := DecodeBinary(bytes.NewReader(honest[:len(honest)-1])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("large frame cut short: %v, want ErrBadFrame", err)
	}
}

// The payload buffer goes back to a pool when DecodeBinary returns, so
// nothing a decoded span holds may point into it: decode A, decode a
// different B of the same size — into the same bytes, as far as the pool
// allows — and A must read exactly as encoded. Then the same from eight
// goroutines sharing the pool, and a frame past the pooling bound, whose
// buffer must not come back.
func TestDecodeBinaryPooledBufferDoesNotAlias(t *testing.T) {
	// other is batch with every string and number changed and every length
	// kept, so the two frames lay out identically.
	other := func(batch []*Span) []*Span {
		out := make([]*Span, len(batch))
		for i, s := range batch {
			c := &Span{
				ID: s.ID ^ 1<<40, ParentID: s.ParentID + 1, CorrelationID: s.CorrelationID + 1,
				Begin: s.Begin, End: s.End + 1, Level: s.Level, Kind: s.Kind,
				Name: strings.ToUpper(s.Name), Source: strings.ToUpper(s.Source),
			}
			for _, tag := range s.Tags {
				c.SetTag(strings.ToUpper(tag.Key), strings.ToUpper(tag.Value))
			}
			for _, m := range s.Metrics {
				c.SetMetric(strings.ToUpper(m.Key), -m.Value-1)
			}
			out[i] = c
		}
		return out
	}
	check := func(t *testing.T, seed uint64) {
		a := encoderBatch(1_000, seed, true)
		b := other(a)
		frameA, frameB := AppendBinaryFrameTenant(nil, "", a), AppendBinaryFrameTenant(nil, "", b)
		if len(frameA) != len(frameB) {
			t.Errorf("frames of %d and %d bytes: not the same size", len(frameA), len(frameB))
			return
		}
		for round := 0; round < 20; round++ {
			gotA, err := DecodeBinary(bytes.NewReader(frameA))
			if err != nil {
				t.Error(err)
				return
			}
			gotB, err := DecodeBinary(bytes.NewReader(frameB))
			if err != nil {
				t.Error(err)
				return
			}
			if len(gotA.Spans) != len(a) || len(gotB.Spans) != len(b) {
				t.Errorf("decoded %d and %d spans, want %d each", len(gotA.Spans), len(gotB.Spans), len(a))
				return
			}
			for i := range a { // begins ascend, so decode order is encode order
				sameSpan(t, gotA.Spans[i], a[i])
				sameSpan(t, gotB.Spans[i], b[i])
			}
		}
	}
	check(t, 1)
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(t, 1+g*5_000)
		}()
	}
	wg.Wait()

	big := AppendBinaryFrameTenant(nil, "", encoderBatch(40_000, 1, false))
	if _, err := DecodeBinary(bytes.NewReader(big)); err != nil || len(big) <= maxPooledFrame {
		t.Fatalf("frame of %d bytes past the pooling bound: %v", len(big), err)
	}
	for i := 0; i < 4; i++ {
		if bp := framePool.Get().(*[]byte); cap(*bp) > maxPooledFrame {
			t.Fatalf("the pool handed back a %d-byte buffer: over the %d it may keep", cap(*bp), maxPooledFrame)
		}
	}
}

// hostileLengthFrame is a version-1 header declaring the largest payload
// the decoder admits, and no payload.
func hostileLengthFrame() []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(wireMagic), wireVersion), maxFramePayload)
}

func TestSpanBlockRoundTripByteExact(t *testing.T) {
	spans := binarySpans()
	ownedIn := func(i int) bool { return i == 1 }
	buf := AppendSpanBlock(nil, spans, ownedIn)

	got, owned, rest, err := DecodeSpanBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the block", len(rest))
	}
	if len(got) != len(spans) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		sameSpan(t, got[i], spans[i])
		wantOwned := ownedIn(i)
		if gotOwned := owned[i/64]&(1<<(i%64)) != 0; gotOwned != wantOwned {
			t.Fatalf("span %d owned=%v, want %v", i, gotOwned, wantOwned)
		}
	}

	// Re-encoding the decoded spans must reproduce the bytes exactly.
	again := AppendSpanBlock(nil, got, ownedIn)
	if !bytes.Equal(buf, again) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(buf), len(again))
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	spans := binarySpans()
	var buf bytes.Buffer
	if err := (&Trace{Spans: spans}).EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != len(spans) {
		t.Fatalf("decoded %d spans, want %d", len(tr.Spans), len(spans))
	}
	// DecodeBinary returns canonical begin order, like DecodeJSON.
	for i := 1; i < len(tr.Spans); i++ {
		if CanonicalLess(tr.Spans[i], tr.Spans[i-1]) {
			t.Fatal("decoded trace not in canonical order")
		}
	}
	byID := tr.SpansByID()
	for _, want := range spans {
		got := byID[want.ID]
		if got == nil {
			t.Fatalf("span %d missing after round trip", want.ID)
		}
		sameSpan(t, got, want)
	}
}

func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	frame := AppendBinaryFrameTenant(nil, "", binarySpans())

	// Every truncation must fail cleanly — wrapping ErrBadFrame, never
	// panicking, never returning spans.
	for n := 0; n < len(frame); n++ {
		tr, err := DecodeBinary(bytes.NewReader(frame[:n]))
		if err == nil || tr != nil {
			t.Fatalf("truncation at %d/%d decoded successfully", n, len(frame))
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrBadFrame", n, err)
		}
	}

	corrupt := func(name string, mutate func([]byte)) {
		b := append([]byte(nil), frame...)
		mutate(b)
		if _, err := DecodeBinary(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s decoded successfully", name)
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: error %v does not wrap ErrBadFrame", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'Y' })
	corrupt("future version", func(b []byte) { b[4] = 99 })
	corrupt("length prefix past the body", func(b []byte) { b[5], b[6] = 0xff, 0xff })
	corrupt("span kind out of range", func(b []byte) {
		b[frameHeaderSize+4+44] = 250 // first record's kind byte
	})
	corrupt("name offset out of blob bounds", func(b []byte) {
		copy(b[frameHeaderSize+4+48:], []byte{0xff, 0xff, 0xff, 0x7f})
	})

	// A payload length that covers garbage beyond the span block must be
	// rejected: the block's own accounting is authoritative.
	b := append([]byte(nil), frame...)
	b = append(b, 0xAB)
	le := b[5:9]
	n := uint32(le[0]) | uint32(le[1])<<8 | uint32(le[2])<<16 | uint32(le[3])<<24
	n++
	le[0], le[1], le[2], le[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	if _, err := DecodeBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("frame with in-length trailing garbage decoded successfully")
	} else if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing garbage: error %v does not wrap ErrBadFrame", err)
	}
}

// FuzzBinaryRoundTrip: arbitrary bytes must never panic the decoder, and
// anything that decodes must re-encode/re-decode to the same spans — in the
// order the reference stable sort gives a record-order decode of the block.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(AppendBinaryFrameTenant(nil, "", binarySpans()))
	reversed := binarySpans()
	slices.Reverse(reversed)
	f.Add(AppendBinaryFrameTenant(nil, "acme", reversed)) // out of order, behind a tenant key
	f.Add(AppendSpanBlock(nil, binarySpans(), nil))
	f.Add([]byte(wireMagic))
	f.Add([]byte{})
	f.Add(hostileLengthFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := DecodeBinary(bytes.NewReader(data)); err == nil {
			// Twice: the second decode refills the first one's pooled payload
			// buffer, which nothing of tr may still be reading.
			twice, err2 := DecodeBinary(bytes.NewReader(data))
			if err2 != nil || len(twice.Spans) != len(tr.Spans) {
				t.Fatalf("second decode of the same frame: %v", err2)
			}
			again, err2 := DecodeBinary(bytes.NewReader(AppendBinaryFrameTenant(nil, "", tr.Spans)))
			if err2 != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err2)
			}
			if len(again.Spans) != len(tr.Spans) {
				t.Fatalf("re-decode has %d spans, want %d", len(again.Spans), len(tr.Spans))
			}
			for i, s := range twice.Spans {
				sameSpan(t, tr.Spans[i], s)
				sameSpan(t, again.Spans[i], s)
			}
			byRecord, _, _, err := DecodeSpanBlock(framePayload(data))
			if err != nil || len(byRecord) != len(tr.Spans) {
				t.Fatalf("record-order decode of a frame DecodeBinary read: %d spans, %v", len(byRecord), err)
			}
			sortSpansCanonicalBySlice(byRecord)
			for i, s := range tr.Spans {
				sameSpan(t, s, byRecord[i])
			}
		}
		spans, owned, _, err := DecodeSpanBlock(data)
		// The structural validator is what a holder of encoded blocks trusts
		// instead of a decode: it must refuse exactly the blocks the decoder
		// refuses.
		blk, _, perr := ParseSpanBlock(data)
		if (perr == nil) != (err == nil) {
			t.Fatalf("ParseSpanBlock: %v, DecodeSpanBlock: %v", perr, err)
		}
		if err != nil {
			return
		}
		ownedIn := func(i int) bool { return owned[i/64]&(1<<(i%64)) != 0 }
		checkSpanBlockReads(t, blk, spans, ownedIn)
		first := AppendSpanBlock(nil, spans, ownedIn)
		// Again, into a reused buffer whose spare capacity is dirty: the same
		// bytes, whatever the spans carry. The dirty encoding is the one
		// decoded below.
		buf := AppendSpanBlock(bytes.Repeat([]byte{0xFF}, len(first)+1)[:0], spans, ownedIn)
		if !bytes.Equal(buf, first) {
			t.Fatalf("encoding into a dirty buffer (%d bytes) differs from encoding into a fresh one (%d bytes)", len(buf), len(first))
		}
		spans2, owned2, rest, err := DecodeSpanBlock(buf)
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if len(rest) != 0 || len(spans2) != len(spans) {
			t.Fatalf("re-decode: %d spans (want %d), %d rest bytes", len(spans2), len(spans), len(rest))
		}
		for i := range spans {
			was := owned[i/64]&(1<<(i%64)) != 0
			is := owned2[i/64]&(1<<(i%64)) != 0
			if was != is {
				t.Fatalf("span %d owned bit changed across round trip: %v -> %v", i, was, is)
			}
			sameSpan(t, spans2[i], spans[i])
		}
	})
}

// framePayload is the span block, and whatever follows it, of a frame
// DecodeBinary read.
func framePayload(frame []byte) []byte {
	if frame[len(wireMagic)] == wireVersionTenant {
		return frame[frameHeaderSize+1+int(frame[len(wireMagic)+1]):]
	}
	return frame[frameHeaderSize:]
}

// checkSpanBlockReads holds the in-place reads of a validated block to its
// decode: every record accessor returns the decoded span's field, a record
// decoded alone is the span DecodeSpanBlock made of it, and the records
// gathered in another order — here backwards, out of two copies of the block
// alternately — decode, with the unchanged DecodeSpanBlock, to the spans,
// order and owned bits AppendSpanBlock gives for the decoded spans in that
// order (not to the same bytes: a gather copies a record's padding and
// unknown flag bits, which the fuzzer sets and the encoder zeroes). None of
// it may panic, whatever the fuzzer made of the tables.
func checkSpanBlockReads(t *testing.T, blk SpanBlock, spans []*Span, owned func(i int) bool) {
	t.Helper()
	if blk.Len() != len(spans) {
		t.Fatalf("block of %d records decoded to %d spans", blk.Len(), len(spans))
	}
	var st SpanStore
	d := blk.Decoder()
	refs := make([]recordRef, 0, len(spans))
	var reversed []*Span
	for i := len(spans) - 1; i >= 0; i-- {
		s := spans[i]
		if blk.ID(i) != s.ID || blk.ParentID(i) != s.ParentID || blk.CorrelationID(i) != s.CorrelationID ||
			blk.Begin(i) != s.Begin || blk.End(i) != s.End || blk.Level(i) != s.Level || blk.Kind(i) != s.Kind || blk.Owned(i) != owned(i) {
			t.Fatalf("record %d read in place as id %d parent %d corr %d [%d,%d) level %d kind %d owned %v, decoded as %+v owned %v",
				i, blk.ID(i), blk.ParentID(i), blk.CorrelationID(i), blk.Begin(i), blk.End(i), blk.Level(i), blk.Kind(i), blk.Owned(i), s, owned(i))
		}
		sameSpan(t, d.Span(&st, i), s)
		if j := i + 1; j < len(spans) && RecordLess(&blk, i, &blk, j) != CanonicalLess(s, spans[j]) {
			t.Fatalf("RecordLess(%d, %d) = %v, CanonicalLess of the decoded spans %v", i, j, RecordLess(&blk, i, &blk, j), CanonicalLess(s, spans[j]))
		}
		refs = append(refs, recordRef{i % 2, i})
		reversed = append(reversed, s)
	}
	gathered, gOwned, rest, err := DecodeSpanBlock(gatherBlock(t, []SpanBlock{blk, blk}, refs))
	want, wOwned, _, _ := DecodeSpanBlock(AppendSpanBlock(nil, reversed, func(i int) bool { return owned(len(spans) - 1 - i) }))
	if err != nil || len(rest) != 0 || len(gathered) != len(want) || !slices.Equal(gOwned, wOwned) {
		t.Fatalf("gathered block: %v, %d bytes left, %d spans (want %d), owned %x (want %x)", err, len(rest), len(gathered), len(want), gOwned, wOwned)
	}
	for i := range want {
		sameSpan(t, gathered[i], want[i])
	}
}

// recordRef names record r of block b in a list of blocks.
type recordRef struct{ b, r int }

// gatherBlock is the span block StreamSpanBlock writes of the records refs
// names, in that order.
func gatherBlock(t *testing.T, blocks []SpanBlock, refs []recordRef) []byte {
	t.Helper()
	var buf bytes.Buffer
	size, err := StreamSpanBlock(&buf, len(refs), func(yield func(blk *SpanBlock, i int) bool) error {
		for _, ref := range refs {
			if !yield(&blocks[ref.b], ref.r) {
				break
			}
		}
		return nil
	})
	if err != nil || size != buf.Len() {
		t.Fatalf("streamed block: %v, %d bytes reported, %d written", err, size, buf.Len())
	}
	return buf.Bytes()
}

// A segment's payload is gathered out of several blocks by reference: the
// result must be an ordinary span block — byte for byte the one
// AppendSpanBlock encodes from the decoded spans in that order, owned bits
// included, spans of several tags and metrics among them — with the blocks'
// shared strings interned once, not once per source.
func TestStreamSpanBlockMatchesAppend(t *testing.T) {
	sources := [][]*Span{binarySpans(), encoderBatch(700, 3, true), nil, encoderBatch(300, 5000, false)}
	ownedIn := func(b, i int) bool { return (b+i)%3 == 0 }
	var blocks []SpanBlock
	var refs []recordRef
	var picked []*Span
	var pickedOwned []bool
	size := 0
	for b, spans := range sources {
		buf := AppendSpanBlock(nil, spans, func(i int) bool { return ownedIn(b, i) })
		blk, rest, err := ParseSpanBlock(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("source %d: %v, %d bytes left", b, err, len(rest))
		}
		checkSpanBlockReads(t, blk, spans, func(i int) bool { return ownedIn(b, i) })
		blocks = append(blocks, blk)
		size += len(buf)
		for i := len(spans) - 1; i >= 0; i -= 1 + b { // some of each, not in record order
			refs = append(refs, recordRef{b, i})
			picked = append(picked, spans[i])
			pickedOwned = append(pickedOwned, ownedIn(b, i))
		}
	}
	payload := gatherBlock(t, blocks, refs)
	got, owned, rest, err := DecodeSpanBlock(payload)
	if err != nil || len(rest) != 0 || len(got) != len(picked) {
		t.Fatalf("gathered payload: %v, %d bytes left, %d spans of %d", err, len(rest), len(got), len(picked))
	}
	for i, s := range picked {
		sameSpan(t, got[i], s)
		if is := owned[i/64]&(1<<(i%64)) != 0; is != pickedOwned[i] {
			t.Fatalf("gathered span %d owned=%v, want %v", i, is, pickedOwned[i])
		}
	}
	if direct := AppendSpanBlock(nil, picked, func(i int) bool { return pickedOwned[i] }); !bytes.Equal(payload, direct) {
		t.Fatalf("gathered payload (%d bytes) differs from the spans encoded directly (%d bytes, sources %d): tables or strings came along that no record reaches, or in another order", len(payload), len(direct), size)
	}
}

// A block may carry one key twice on a span (nothing in the format forbids
// it, and StreamSpanBlock copies what it finds): the decoded span holds both
// entries, Tag and Metric answer the last — what a map decode kept of them —
// the JSON view shows the key once, and a binary re-encode keeps both.
func TestRepeatedKeyLastEntryWins(t *testing.T) {
	in := &Span{ID: 1, Name: "volta_sgemm", Begin: 1, End: 2,
		Tags:    []Tag{{"stream", "1"}, {"grid", "8x8"}, {"stream", "2"}},
		Metrics: []Metric{{"bytes", 1}, {"bytes", 2}},
	}
	block := appendSpanBlockByCopy(nil, []*Span{in}, nil)
	spans, _, _, err := DecodeSpanBlock(block)
	if err != nil || len(spans) != 1 {
		t.Fatalf("decode: %d spans, %v", len(spans), err)
	}
	s := spans[0]
	sameSpan(t, s, in)
	if s.Tag("stream") != "2" || s.Tag("grid") != "8x8" || s.Metric("bytes") != 2 {
		t.Fatalf("stream=%q grid=%q bytes=%v: want the last entry of each key", s.Tag("stream"), s.Tag("grid"), s.Metric("bytes"))
	}

	var js bytes.Buffer
	if err := (&Trace{Spans: spans}).EncodeJSON(&js); err != nil {
		t.Fatal(err)
	}
	var view []struct {
		Tags    map[string]string  `json:"tags"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(js.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(js.String(), `"stream"`); n != 1 || len(view[0].Tags) != 2 || view[0].Tags["stream"] != "2" || len(view[0].Metrics) != 1 || view[0].Metrics["bytes"] != 2 {
		t.Fatalf("JSON view: %q written %d times, tags %v, metrics %v", "stream", n, view[0].Tags, view[0].Metrics)
	}

	if again := AppendSpanBlock(nil, spans, nil); !bytes.Equal(again, block) {
		t.Fatalf("re-encode of the decoded span (%d bytes) differs from the block (%d bytes)", len(again), len(block))
	}

	// SetTag writes the entry Tag reads, and adds none.
	s.SetTag("stream", "3")
	s.SetMetric("bytes", 3)
	if want := []Tag{{"stream", "1"}, {"grid", "8x8"}, {"stream", "3"}}; !slices.Equal(s.Tags, want) || !slices.Equal(s.Metrics, []Metric{{"bytes", 1}, {"bytes", 3}}) {
		t.Fatalf("after overwriting: tags %v, metrics %v", s.Tags, s.Metrics)
	}
}

// Decoded spans carve their tags and metrics out of arenas the whole batch
// shares, and a clone starts from its original's: writing one span's — an
// overwrite in place, an append that must not spill into the neighbour's
// entries — leaves every other span of the batch, and the original of a
// clone, as decoded.
func TestDecodedAttributesDoNotAlias(t *testing.T) {
	batch := encoderBatch(64, 8, true)
	block := AppendSpanBlock(nil, batch, nil)
	spans, _, _, err := DecodeSpanBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	write := func(s *Span) {
		s.SetTag("layer_index", "overwritten")
		s.SetTag("added", "tag")
		s.SetMetric("bytes", -1)
		s.SetMetric("added", 1)
	}
	for i, s := range spans {
		if cap(s.Tags) != len(s.Tags) || cap(s.Metrics) != len(s.Metrics) {
			t.Fatalf("span %d: %d tags in room for %d, %d metrics in room for %d: an append would write into the arena", i, len(s.Tags), cap(s.Tags), len(s.Metrics), cap(s.Metrics))
		}
		if (s.Tags == nil) != (len(batch[i].Tags) == 0) || (s.Metrics == nil) != (len(batch[i].Metrics) == 0) {
			t.Fatalf("span %d: tags %v, metrics %v: want nil exactly when the span has none", i, s.Tags, s.Metrics)
		}
		c := s.Clone()
		write(c)
		sameSpan(t, s, batch[i])
	}
	for i, s := range spans {
		write(s)
		if s.Tag("added") != "tag" || s.Metric("added") != 1 || s.Metric("bytes") != -1 {
			t.Fatalf("span %d: the writes did not take: %v %v", i, s.Tags, s.Metrics)
		}
		for j := i + 1; j < len(spans); j++ {
			sameSpan(t, spans[j], batch[j])
		}
	}
}

// AcceptsBinary counts the binary media type only where it is listed with
// a nonzero weight: q=0 is "not acceptable" (RFC 9110), however written.
func TestAcceptsBinary(t *testing.T) {
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"application/json", false},
		{"*/*", false},
		{"application/x-xsp-spans", true},
		{"application/json, application/x-xsp-spans", true},
		{"application/x-xsp-spans;q=0, application/json", false},
		{"application/x-xsp-spans; q=0.000", false},
		{"application/x-xsp-spans;q=0.0, application/json;q=0.5", false},
		{"application/x-xsp-spans;q=0.5", true},
		{"application/x-xsp-spans;q=0.001", true},
		{"application/x-xsp-spans;q=1", true},
		{"  application/x-xsp-spans ;  q=0 , application/json", false},
		{"  application/x-xsp-spans ;  q=0.5 ", true},
		{"Application/X-XSP-Spans", true},
		{"APPLICATION/X-XSP-SPANS; Q=0", false},
		{"application/json, Application/X-XSP-Spans; Q=0.9", true},
	} {
		if got := AcceptsBinary(tc.accept); got != tc.want {
			t.Errorf("AcceptsBinary(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

func TestServerSpanContentNegotiation(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body []byte, contentType, batchID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/spans", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if batchID != "" {
			req.Header.Set(batchIDHeader, batchID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	spans := binarySpans()
	frame := AppendBinaryFrameTenant(nil, "", spans)

	// An unsupported content type is refused with 415 before any batch id
	// is claimed.
	if resp := post(frame, "application/x-protobuf", "ab"); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown content type: got %s, want 415", resp.Status)
	}

	// A corrupt binary frame is a clean 400: nothing published, batch id
	// released.
	if resp := post(frame[:len(frame)-3], ContentTypeBinary, "ab"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: got %s, want 400", resp.Status)
	}
	if srv.Tenant(DefaultTenant).Received() != 0 {
		t.Fatalf("corrupt frame published %d spans", srv.Tenant(DefaultTenant).Received())
	}

	// The corrected retry with the same batch id lands exactly once.
	if resp := post(frame, ContentTypeBinary, "ab"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary batch: got %s, want 202", resp.Status)
	}
	if resp := post(frame, ContentTypeBinary, "ab"); resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Duplicate-Batch") != "1" {
		t.Fatal("binary re-ship of a committed batch must be acknowledged as duplicate")
	}
	if got, want := srv.Tenant(DefaultTenant).Received(), len(spans); got != want {
		t.Fatalf("server received %d spans, want %d exactly once", got, want)
	}

	// /api/trace content-negotiates: binary when asked, JSON otherwise —
	// and FetchTraceTenant (which asks for binary) sees the same spans.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/trace", nil)
	req.Header.Set("Accept", ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ContentTypeBinary) {
		t.Fatalf("Accept: binary answered with Content-Type %q", ct)
	}
	tr, err := DecodeBinary(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != len(spans) {
		t.Fatalf("binary /api/trace returned %d spans, want %d", len(tr.Spans), len(spans))
	}
	fetched, err := FetchTraceTenant(nil, ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched.Spans) != len(spans) {
		t.Fatalf("FetchTraceTenant returned %d spans, want %d", len(fetched.Spans), len(spans))
	}
	byID := fetched.SpansByID()
	for _, want := range spans {
		if got := byID[want.ID]; got == nil {
			t.Fatalf("span %d missing from fetched trace", want.ID)
		} else {
			sameSpan(t, got, want)
		}
	}
}
