// Package pstruct is a fixture stub of the real persistent containers.
// publishcheck recognizes the two halves of their mutation protocol by
// name across the package boundary, so only the names matter; bodies are
// inert.
package pstruct

import "fix/nvm"

// Vector stands in for the persistent vector.
type Vector struct{}

// StageAppend is a stage half: it writes and flushes bytes nothing
// reaches yet.
func (v *Vector) StageAppend(val uint64) (uint64, error) { return 0, nil }

// Publish is a publish half: it stores and flushes the length word.
func (v *Vector) Publish() {}

// Len is neither half.
func (v *Vector) Len() uint64 { return 0 }

// Arena stands in for the append arena.
type Arena struct{}

// Alloc bumps and flushes the cursor: a stage half by another name.
func (a *Arena) Alloc(n uint64) (nvm.PPtr, error) { return 0, nil }
