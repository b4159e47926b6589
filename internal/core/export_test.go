package core

// ScratchOf returns the pooled scratch tx holds: nil before its first
// use and after the transaction has finished.
func ScratchOf(tx *Txn) *Scratch { return tx.scratch }
