package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"
)

var embeddingPrefix = []byte(`{"embedding":[`)

// summaryLine is the part of a /match summary the harness reads. Unknown
// fields are ignored, so the daemon may add to its summary freely.
type summaryLine struct {
	Done       bool   `json:"done"`
	Embeddings uint64 `json:"embeddings"`
	Cancelled  bool   `json:"cancelled"`
	TimedOut   bool   `json:"timed_out"`
	RejectedBy string `json:"rejected_by"`
}

// matchReply is one /match response as the client saw it.
type matchReply struct {
	status  int
	lines   uint64 // NDJSON embedding lines received
	first   []byte // the first embedding line, for edge-by-edge verification
	summary summaryLine
	err     error
}

// client is one closed-loop requester with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// match posts one pattern and reads the NDJSON reply. The latency runs
// from just before the request is written to the last byte of the summary
// line; everything after that (draining to EOF, parsing the summary) is
// off the clock.
func (c *client) match(path string, body []byte) (matchReply, time.Duration) {
	var r matchReply
	start := time.Now()
	resp, err := c.hc.Post(c.base+path, "text/plain", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r, time.Since(start)
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		r.err = fmt.Errorf("status %d", resp.StatusCode)
		return r, time.Since(start)
	}
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	var last []byte
	var lat time.Duration
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if bytes.HasPrefix(line, embeddingPrefix) {
				if r.lines == 0 {
					r.first = append([]byte(nil), line...)
				}
				r.lines++
			} else {
				lat = time.Since(start)
				last = append(last[:0], line...)
			}
		}
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			break
		}
	}
	if last == nil {
		if r.err == nil {
			r.err = fmt.Errorf("reply ended without a summary line")
		}
		return r, time.Since(start)
	}
	if err := json.Unmarshal(last, &r.summary); err != nil {
		r.err = fmt.Errorf("summary line: %w", err)
	} else if !r.summary.Done {
		r.err = fmt.Errorf("last line is not a summary: %s", bytes.TrimSpace(last))
	}
	return r, lat
}

// commitDoc is a /mutate acknowledgement.
type commitDoc struct {
	Applied     int    `json:"applied"`
	FirstSeq    uint64 `json:"first_seq"`
	LastSeq     uint64 `json:"last_seq"`
	Epoch       uint64 `json:"epoch"`
	Deltas      uint64 `json:"deltas"`
	Retractions uint64 `json:"retractions"`
}

// mutate posts one batch; the latency covers the whole acknowledgement.
func (c *client) mutate(graphName string, body []byte) (commitDoc, time.Time, time.Duration, error) {
	var doc commitDoc
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/graphs/"+graphName+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		return doc, start, time.Since(start), err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return doc, start, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return doc, start, lat, fmt.Errorf("mutate: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, start, lat, fmt.Errorf("mutate reply: %w", err)
	}
	return doc, start, lat, nil
}

// commitEvent is one "commit" line of a subscription stream, stamped when
// it was read.
type commitEvent struct {
	seq         uint64
	deltas      uint64
	retractions uint64
	at          time.Time
}

// subscriber holds one /subscribe stream open and only timestamps what
// arrives: delta and retract lines are counted, commit lines are kept.
type subscriber struct {
	resp *http.Response
	done chan struct{}

	mu         sync.Mutex
	commits    []commitEvent
	deltaLines uint64
	retLines   uint64
}

// subscribe opens the stream and returns after the hello line, so every
// batch sent afterwards is seen by the subscription.
func subscribe(base, graphName string, patternText []byte, variant string) (*subscriber, error) {
	u := base + "/v1/graphs/" + graphName + "/subscribe?variant=" + variant + "&pattern=" + url.QueryEscape(string(patternText))
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	br := bufio.NewReader(resp.Body)
	hello, err := br.ReadBytes('\n')
	if err != nil || !bytes.Contains(hello, []byte(`"subscribed":true`)) {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: bad hello %q: %v", hello, err)
	}
	s := &subscriber{resp: resp, done: make(chan struct{})}
	go s.read(br)
	return s, nil
}

// read runs until the stream ends: the daemon died or close() was called.
func (s *subscriber) read(br *bufio.Reader) {
	defer close(s.done)
	var ev struct {
		Kind        string `json:"kind"`
		Seq         uint64 `json:"seq"`
		Deltas      uint64 `json:"deltas"`
		Retractions uint64 `json:"retractions"`
	}
	for {
		line, err := br.ReadBytes('\n')
		at := time.Now()
		if len(line) > 1 {
			ev.Kind = ""
			if jerr := json.Unmarshal(line, &ev); jerr == nil {
				s.mu.Lock()
				switch ev.Kind {
				case "commit":
					s.commits = append(s.commits, commitEvent{ev.Seq, ev.Deltas, ev.Retractions, at})
				case "delta":
					s.deltaLines++
				case "retract":
					s.retLines++
				}
				s.mu.Unlock()
			}
		}
		if err != nil {
			return // EOF, or the body closed under the reader: either way the stream is over
		}
	}
}

// close ends the stream and waits for the reader.
func (s *subscriber) close() {
	s.resp.Body.Close()
	<-s.done
}

// waitFor blocks until the commit event for seq has been read, the stream
// has ended, or the timeout passes.
func (s *subscriber) waitFor(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		n := len(s.commits)
		ok := n > 0 && s.commits[n-1].seq >= seq
		s.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-s.done:
			return false
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
