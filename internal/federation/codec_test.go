package federation

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobio"
)

// encodeHandoffRef is the encoder the wire shipped before frames were encoded
// in place: marshal the payload, then copy it between a header and a trailer.
// It is the byte-equality reference for wireBuf.encodeHandoff — both ends of
// a mixed-version fleet must read each other's frames.
func encodeHandoffRef(h *Handoff) ([]byte, error) {
	payload, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("federation: encode handoff: %w", err)
	}
	return frameRef(payload), nil
}

// frameRef wraps payload, whatever JSON it holds, in a wire frame.
func frameRef(payload []byte) []byte {
	dst := make([]byte, 0, frameHeader+len(payload)+frameTrailer)
	dst = append(dst, frameMagic...)
	dst = append(dst, byte(Version))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// randomHandoff draws a handoff whose strings include what json.Marshal
// rewrites and whose job ranges from empty to a few dozen tasks. It need
// not be valid: the encoder frames whatever it is given.
func randomHandoff(rng *rand.Rand) *Handoff {
	words := []string{"", "j", "job-7", "<script>&", "naïve ✓", "tab\there", "\xff", `q"uo\te`, strings.Repeat("long", 200)}
	word := func() string { return words[rng.Intn(len(words))] }
	h := &Handoff{
		Key: word(), Strategy: word(),
		Priority: rng.Intn(5) - 1, Epoch: rng.Intn(3),
	}
	h.Job = jobio.Job{Name: h.Key, Deadline: rng.Int63n(1000)}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		h.Job.Tasks = append(h.Job.Tasks, jobio.Task{Name: fmt.Sprintf("T%d%s", i, word()), BaseTime: rng.Int63n(50), Volume: rng.Int63n(500)})
		if i > 0 && rng.Intn(2) == 0 {
			h.Job.Edges = append(h.Job.Edges, jobio.Edge{Name: word(), From: h.Job.Tasks[i-1].Name, To: h.Job.Tasks[i].Name, BaseTime: rng.Int63n(9), Volume: rng.Int63n(90)})
		}
	}
	return h
}

func checkFramesAsReference(t *testing.T, b *wireBuf, h *Handoff) {
	t.Helper()
	want, err := encodeHandoffRef(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.encodeHandoff(h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("frame differs from the reference\n got %q\nwant %q", b.Bytes(), want)
	}
	if payload, rest, err := readFrame(b.Bytes()); err != nil || len(rest) != 0 || len(payload) != len(want)-frameHeader-frameTrailer {
		t.Fatalf("frame does not read back: payload %d bytes, rest %d, err %v", len(payload), len(rest), err)
	}
}

// TestEncodeHandoffMatchesReference holds the in-place frame encoder to the
// reference, byte for byte, over random handoffs and the handoffs behind the
// fuzz seed corpus — through one buffer, so nothing of a frame survives into
// the next — and EncodeHandoff, the copying form, to the same bytes.
func TestEncodeHandoffMatchesReference(t *testing.T) {
	b := getWireBuf()
	defer putWireBuf(b)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 150; i++ {
			checkFramesAsReference(t, b, randomHandoff(rng))
		}
	}
	seeds := []*Handoff{testHandoff("fuzz-seed"), testHandoff("b"), {Key: "k", Job: testJob("not-k", 60)}, {}}
	for _, h := range seeds {
		checkFramesAsReference(t, b, h)
		want, _ := encodeHandoffRef(h)
		if got, err := EncodeHandoff(h); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("EncodeHandoff(%q) = %q, %v; want %q", h.Key, got, err, want)
		}
	}
}

// BenchmarkHandoffFrame is what one handoff costs the codec on both ends:
// the router's encode into a pooled buffer and the shard's decode out of one.
func BenchmarkHandoffFrame(b *testing.B) {
	h := testHandoff("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := newFrame(h)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeHandoff(frame.Bytes()); err != nil {
			b.Fatal(err)
		}
		releaseFrame(frame)
	}
}

// TestFrameBodyHoldsTheBufferUntilEveryReaderLetsGo: the frame's buffer goes
// back to the pool when the sender and every body over it are done, not
// before, and a body closed twice lets go once.
func TestFrameBodyHoldsTheBufferUntilEveryReaderLetsGo(t *testing.T) {
	frame, err := newFrame(testHandoff("j"))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(frame.Bytes())
	first, rewound := newFrameBody(frame), newFrameBody(frame)
	if got := frame.refs.Load(); got != 3 {
		t.Fatalf("sender + two bodies hold %d references, want 3", got)
	}
	half := make([]byte, len(want)/2)
	if _, err := io.ReadFull(first, half); err != nil {
		t.Fatal(err)
	}
	first.Close()
	first.Close()
	releaseFrame(frame) // the sender returns while the transport still reads
	if got := frame.refs.Load(); got != 1 {
		t.Fatalf("after the sender and one body let go (the body twice): %d references, want 1", got)
	}
	got, err := io.ReadAll(rewound)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a rewound body reads %q, %v; want the whole frame", got, err)
	}
	rewound.Close()
	if got := frame.refs.Load(); got != 0 {
		t.Fatalf("%d references left after everyone let go", got)
	}
}

// lateTransport answers every request at once and reads its body later: the
// freedom http.RoundTripper grants ("may close the body in a separate
// goroutine even after RoundTrip returns") taken to the extreme.
type lateTransport struct {
	mu     sync.Mutex
	bodies []io.ReadCloser
}

func (l *lateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.bodies = append(l.bodies, r.Body)
	l.mu.Unlock()
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(strings.NewReader(`{"accepted":true}`)),
	}, nil
}

// TestHandoffFrameOutlivesHandoff: a frame's bytes stay the frame's until the
// transport has closed the body over them, however many handoffs have been
// encoded, sent and answered in between. A buffer pooled when Handoff
// returns would be overwritten by the next frame while this one is unread.
func TestHandoffFrameOutlivesHandoff(t *testing.T) {
	late := &lateTransport{}
	shard := NewHTTPShard("s0", "http://shard.invalid", &http.Client{Transport: late})
	const n = 64
	for i := 0; i < n; i++ {
		res, err := shard.Handoff(context.Background(), testHandoff(fmt.Sprintf("late-%d", i)))
		if err != nil || !res.Accepted {
			t.Fatalf("handoff %d: %+v, %v", i, res, err)
		}
	}
	if len(late.bodies) != n {
		t.Fatalf("transport saw %d requests, want %d", len(late.bodies), n)
	}
	for i, body := range late.bodies {
		frame, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		h, err := DecodeHandoff(frame)
		if err != nil || h.Key != fmt.Sprintf("late-%d", i) {
			t.Fatalf("request %d, read after %d later handoffs, carries %+v (%v)", i, n-1-i, h, err)
		}
		body.Close()
	}
}

// TestHandoffOverRealHTTP: the frame travels as a body of known length (not
// chunked), survives a 307 — the client rewinds through GetBody — and, sent
// from several goroutines sharing the pool, always arrives as its sender's.
func TestHandoffOverRealHTTP(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.URL.Query().Get("hop") == "" {
			http.Redirect(w, r, r.URL.Path+"?hop=1", http.StatusTemporaryRedirect)
			return
		}
		h, err := DecodeHandoff(body)
		switch {
		case err != nil:
			writeJSON(w, http.StatusBadRequest, HandoffResult{Code: "bad_frame", Reason: err.Error()})
		case r.ContentLength != int64(len(body)) || len(r.TransferEncoding) != 0:
			writeJSON(w, http.StatusBadRequest, HandoffResult{Code: "bad_frame",
				Reason: fmt.Sprintf("content length %d for %d bytes, transfer encoding %v", r.ContentLength, len(body), r.TransferEncoding)})
		default:
			mu.Lock()
			seen[h.Key]++
			mu.Unlock()
			writeJSON(w, http.StatusOK, HandoffResult{Accepted: true})
		}
	}))
	defer ts.Close()

	const workers, each = 4, 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shard := NewHTTPShard("s0", ts.URL, ts.Client())
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				h := testHandoff(key)
				h.Job.Tasks[0].Name = strings.Repeat("x", 1+(i*997)%9000) // frames of many sizes share the buffers
				h.Job.Edges[0].From = h.Job.Tasks[0].Name
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				res, err := shard.Handoff(ctx, h)
				cancel()
				if err != nil || !res.Accepted {
					t.Errorf("handoff %s: %+v, %v", key, res, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(seen) != workers*each {
		t.Errorf("shard decoded %d distinct keys, want %d", len(seen), workers*each)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("shard decoded %s %d times, want once", key, n)
		}
	}
}

// A member that is given no client builds its default once, in NewMember:
// joins and every terminal notice share it (and its connections).
func TestMemberBuildsItsDefaultClientOnce(t *testing.T) {
	m := NewMember(MemberConfig{Shard: "s0"})
	if m.client == nil || m.client.Timeout != 5*time.Second {
		t.Fatalf("default client: %+v", m.client)
	}
	own := &http.Client{}
	if m := NewMember(MemberConfig{Shard: "s0", Client: own}); m.client != own {
		t.Fatal("a configured client was replaced")
	}
}
