package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerDropsSlowHeaders checks that the server cmd/serve listens with
// bounds the time a connection may take to send its request headers, and
// that a client trickling a header is cut off while a prompt one is served.
// The check on the live listener shortens the bound so the test is quick.
func TestServerDropsSlowHeaders(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	srv := newServer("", h)
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the constant %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// The header never ends: the server must close the connection well
	// before this deadline, so the read ends with EOF, not a timeout.
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("slow-header connection was not closed by the server: %v", err)
	}

	fast, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if _, err := io.WriteString(fast, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	fast.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(fast), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 16))
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("prompt request: %d %q", resp.StatusCode, body)
	}
}
