// Package server exercises the deadlinecheck analyzer; the package name
// puts it in the analyzer's scope.
package server

import (
	"bufio"
	"io"
	"net"
	"time"

	"fix/wire"
)

// readNoDeadline blocks forever on a wedged peer.
func readNoDeadline(c net.Conn, buf []byte) {
	c.Read(buf) // want `conn\.Read without a deadline on every path`
}

// writeNoDeadline likewise on the write side.
func writeNoDeadline(c net.Conn, buf []byte) {
	c.Write(buf) // want `conn\.Write without a deadline on every path`
}

// readWithDeadline is the required shape.
func readWithDeadline(c net.Conn, buf []byte) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	c.Read(buf)
}

// frameNoDeadline reaches the socket through the protocol codec.
func frameNoDeadline(c net.Conn) {
	wire.ReadFrame(c) // want `wire\.ReadFrame without a deadline on every path`
}

// frameWithDeadline covers both codec directions under one deadline.
func frameWithDeadline(c net.Conn) {
	c.SetDeadline(time.Now().Add(time.Second))
	f, _ := wire.ReadFrame(c)
	wire.WriteFrame(c, f)
}

// frameReaderNoDeadline reads through the buffered frame reader.
func frameReaderNoDeadline(c net.Conn) {
	fr := wire.NewFrameReader(c)
	fr.Next() // want `wire\.FrameReader\.Next without a deadline on every path`
}

// frameReaderLoop re-arms the deadline before every frame.
func frameReaderLoop(c net.Conn, fr *wire.FrameReader) {
	for {
		c.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := fr.Next(); err != nil {
			return
		}
	}
}

// flushNoDeadline hits the socket when the buffer drains.
func flushNoDeadline(w *bufio.Writer) {
	w.Flush() // want `bufio Flush without a deadline on every path`
}

// plainReader is ordinary io and out of scope.
func plainReader(r io.Reader, buf []byte) {
	r.Read(buf)
}

// callerDeadline documents a connection governed by the caller.
func callerDeadline(c net.Conn) {
	//nvmcheck:ignore deadlinecheck fixture: session loop sets the deadline per request
	wire.ReadFrame(c)
}

// branchDeadline sets the deadline on one branch only; the other path
// reaches the read bare. v1's source-order scan accepted this.
func branchDeadline(c net.Conn, buf []byte, timed bool) {
	if timed {
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(buf) // want `conn\.Read without a deadline on every path`
}

// bothBranchDeadline covers every path; the must-join accepts it.
func bothBranchDeadline(c net.Conn, buf []byte, long bool) {
	if long {
		c.SetReadDeadline(time.Now().Add(time.Minute))
	} else {
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(buf)
}

// closureRead runs with its own control flow: the enclosing deadline
// does not govern a goroutine that may outlive it.
func closureRead(c net.Conn, buf []byte) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	go func() {
		c.Read(buf) // want `conn\.Read without a deadline on every path`
	}()
}

// closureOwnDeadline sets its deadline inside the closure.
func closureOwnDeadline(c net.Conn, buf []byte) {
	go func() {
		c.SetReadDeadline(time.Now().Add(time.Second))
		c.Read(buf)
	}()
}

// loopDeadline re-arms the deadline at the top of each iteration, so
// the back edge carries a set fact.
func loopDeadline(c net.Conn, buf []byte, n int) {
	for i := 0; i < n; i++ {
		c.SetReadDeadline(time.Now().Add(time.Second))
		c.Read(buf)
	}
}
