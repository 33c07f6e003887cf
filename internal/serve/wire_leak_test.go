package serve

import (
	"bufio"
	"net"
	"runtime"
	"testing"
	"time"

	"mpipredict/internal/wire"
)

// TestWireServerStopLeaksNoGoroutines stops a WireServer that holds open
// connections, idle or with a frame half written, and requires the
// goroutine count to return to its baseline: Close cuts the connections
// itself, a graceful Shutdown returns once the clients hang up.
func TestWireServerStopLeaksNoGoroutines(t *testing.T) {
	for _, stop := range []string{"close", "shutdown"} {
		for _, halfFrame := range []bool{false, true} {
			name := stop + "/idle"
			if halfFrame {
				name = stop + "/half-frame"
			}
			t.Run(name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				ws := NewWireServer(NewServer(NewRegistry(Config{})))
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				served := make(chan error, 1)
				go func() { served <- ws.Serve(ln) }()

				var clients []net.Conn
				for i := 0; i < 4; i++ {
					clients = append(clients, dialHandshaken(t, ln.Addr().String(), halfFrame))
				}
				hangUp := func() {
					for _, c := range clients {
						c.Close()
					}
				}
				defer hangUp()

				stopped := make(chan struct{})
				go func() {
					defer close(stopped)
					if stop == "close" {
						ws.Close()
					} else {
						ws.Shutdown()
					}
				}()
				if stop == "shutdown" {
					select {
					case <-stopped:
						t.Fatal("Shutdown returned while clients still held their connections")
					case <-time.After(50 * time.Millisecond):
					}
					hangUp()
				}
				select {
				case <-stopped:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s did not return", stop)
				}
				if err := <-served; err != nil {
					t.Fatalf("Serve returned %v", err)
				}
				hangUp()
				waitForGoroutines(t, baseline)
			})
		}
	}
}

// dialHandshaken opens a wire connection and completes the handshake, so
// the server's connection goroutine is parked reading the first frame.
// With halfFrame it then writes a frame header and part of its payload.
func dialHandshaken(t *testing.T, addr string, halfFrame bool) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHandshake(bufio.NewReader(conn)); err != nil {
		t.Fatal(err)
	}
	if halfFrame {
		// A 100-byte payload announced, 10 bytes of it sent.
		if _, err := conn.Write(append([]byte{100}, make([]byte, 10)...)); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// waitForGoroutines polls until the goroutine count is back at baseline,
// and fails with every stack when it is not within the deadline.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines grew from %d to %d:\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
	}
}
