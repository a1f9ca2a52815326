package client

import (
	"net"
	"sync"
	"syscall"
)

// peerProbe looks at a connection's socket for a peer that has closed
// it, without blocking and without consuming input. It works on the raw
// socket from the dial, beneath any Options.ConnWrapper.
type peerProbe struct {
	raw  syscall.RawConn
	peek func(fd uintptr) // built once, so a probe allocates nothing

	mu  sync.Mutex // one probe at a time: peek reports through n and err
	n   int
	err error
}

// newPeerProbe returns a probe for nc, or nil when nc has no socket to
// look at (a nil probe never reports the peer gone).
func newPeerProbe(nc net.Conn) *peerProbe {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	p := &peerProbe{raw: raw}
	p.peek = func(fd uintptr) {
		var b [1]byte
		p.n, _, p.err = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	}
	return p
}

// gone reports whether the peer has closed or reset the connection. A
// socket with input waiting, or with nothing to read yet, is not gone.
func (p *peerProbe) gone() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.raw.Control(p.peek); err != nil {
		return true // the socket is closed
	}
	switch p.err {
	case nil:
		return p.n == 0 // end of stream: the peer shut the connection down
	case syscall.EAGAIN, syscall.EINTR:
		return false
	default:
		return true
	}
}
