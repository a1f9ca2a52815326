package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"

	"hyrisenv/internal/disk"
)

// ErrWriterClosed is returned by appends after Close.
var ErrWriterClosed = errors.New("wal: writer closed")

// Writer appends framed records to a log device: one device write per
// Append, one device sync per Sync. It has no group commit of its own —
// the transaction manager's batcher hands it one Append and one Sync per
// commit group, so concurrent committers share both. The first device
// error is sticky: every later Append or Sync returns it.
type Writer struct {
	dev *disk.Device
	w   *disk.SeqWriter

	mu       sync.Mutex
	appended uint64 // LSN (byte offset) after all appended records
	synced   uint64 // LSN durable on the device
	closed   bool
	err      error
}

// NewWriter creates a Writer appending at offset off of dev.
func NewWriter(dev *disk.Device, off int64) *Writer {
	return &Writer{dev: dev, w: dev.SequentialWriter(off), appended: uint64(off), synced: uint64(off)}
}

// Append writes rec (already framed) to the device in one write. rec is
// durable once a later Sync returns nil.
func (w *Writer) Append(rec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWriterClosed
	}
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.Write(rec); err != nil {
		w.err = err
		return err
	}
	w.appended += uint64(len(rec))
	return nil
}

// Sync makes every appended record durable. With nothing appended since
// the last sync it returns at once — also after Close, whose own sync
// covered everything the writer ever appended.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.err == nil && w.synced < w.appended {
		if w.err = w.dev.Sync(); w.err == nil {
			w.synced = w.appended
		}
	}
	return w.err
}

// LSN returns the append position (bytes appended so far).
func (w *Writer) LSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Close syncs outstanding records and refuses further appends.
// Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.syncLocked()
}

// ReadRecords scans framed records from r, calling fn for each decoded
// op. It stops cleanly at a torn tail (truncated frame or CRC mismatch),
// returning the number of valid records and the byte length of the valid
// prefix — the standard crash-recovery contract of a redo log.
func ReadRecords(r io.Reader, fn func(Op) error) (count int, validBytes uint64, err error) {
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return count, validBytes, nil // clean EOF or torn header: stop
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 || length > 64<<20 {
			return count, validBytes, nil // corrupt length: torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return count, validBytes, nil // torn body
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return count, validBytes, nil // torn/corrupt record
		}
		op, err := decodePayload(payload)
		if err != nil {
			return count, validBytes, err // CRC-valid but malformed: real corruption
		}
		if err := fn(op); err != nil {
			return count, validBytes, err
		}
		count++
		validBytes += 8 + uint64(length)
	}
}
