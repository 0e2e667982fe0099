package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe log writer for a daemon under test.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestListenAndServeDropsSilentClient: a client that connects and never
// sends a request header is disconnected once the header timeout runs
// out, instead of holding its connection open forever.
func TestListenAndServeDropsSilentClient(t *testing.T) {
	saved := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	var log syncBuf
	done := make(chan error, 1)
	go func() { done <- ListenAndServe(ctx, Options{Addr: "127.0.0.1:0", Log: &log}) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
		readHeaderTimeout = saved
	})

	addrRe := regexp.MustCompile(`listening on http://([^ ]+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; log: %q", log.String())
		}
		if m := addrRe.FindStringSubmatch(log.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Far beyond the shortened header timeout: hitting this deadline
	// means the server kept the silent connection open.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a header-less connection open past its read-header timeout")
	}
}
