package core

import "unsafe"

// ScratchOf returns the pooled scratch tx holds: nil before its first
// use and after the transaction has finished.
func ScratchOf(tx *Txn) *Scratch { return tx.scratch }

// IndexLen returns the size of tx's footprint index: 0 while the
// footprint is scanned.
func IndexLen(tx *Txn) int {
	if tx.scratch == nil {
		return 0
	}
	return len(tx.scratch.index)
}

// Entry returns the footprint position of k.
func Entry(tx *Txn, k string) int { return tx.entry(k) }

// PolicyUsed reports whether the transaction holding sc has reached its
// policy state (Scratch.FirstPolicyUse).
func PolicyUsed(sc *Scratch) bool { return sc.policyUsed }

// The error an aborted step returns is 48 bytes, the size class it is
// allocated in: this file does not compile if it moves.
var _ [48]byte = [unsafe.Sizeof(abortError{})]byte{}
