package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"
)

// maxConns is the load the benchmark puts on the machine: closed-loop
// clients and HTTP connections are both capped at the CPU count, and at 2
// so that results from larger machines stay comparable.
func maxConns() int { return min(2, runtime.NumCPU()) }

// loopback is an HTTP server on a local port that counts the connections
// clients open to it through the server's ConnState hook.
type loopback struct {
	*httptest.Server
	opened atomic.Int64
}

func startLoopback(h http.Handler) *loopback {
	lb := &loopback{}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			lb.opened.Add(1)
		}
	}
	ts.Start()
	lb.Server = ts
	return lb
}

// newClient returns a keep-alive client that opens at most conns
// connections to any one host; requests beyond that wait for a free one.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// call is one finished request as the client saw it.
type call struct {
	status int // 0 = transport error
	sent   time.Time
	done   time.Time
	body   []byte
}

// do sends one request with the given request id (none when empty) and
// reads the whole body into buf, which it returns grown as needed.
func do(client *http.Client, method, url string, body []byte, reqID string, buf []byte) (call, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return call{sent: time.Now(), done: time.Now()}, buf
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	c := call{sent: time.Now()}
	resp, err := client.Do(req)
	if err != nil {
		c.done = time.Now()
		return c, buf
	}
	b := bytes.NewBuffer(buf[:0])
	_, err = b.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body was read in full
	c.done = time.Now()
	if err != nil {
		return c, b.Bytes()
	}
	c.status = resp.StatusCode
	c.body = b.Bytes()
	return c, c.body
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }
