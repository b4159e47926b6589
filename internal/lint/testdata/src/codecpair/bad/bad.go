// Package bad declares wire-style message types with missing codec
// legs so the codecpair analyzer proves it fires.
//
//mvtl:wire-codec
package bad

import "encoding/binary"

// NoDecode has an encoder and nothing else: its encodes would be
// undecodable, and the fuzzer never sees it.
type NoDecode struct { // want `no DecodeNoDecode function or DecodeInto method` `NoDecode missing from the codecCases`
	A uint64
}

func (m NoDecode) AppendTo(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, m.A)
}

// NotFuzzed round-trips fine but is absent from the seed corpus.
type NotFuzzed struct { // want `NotFuzzed missing from the codecCases`
	B uint64
}

func (m NotFuzzed) AppendTo(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, m.B)
}

func DecodeNotFuzzed(b []byte) (NotFuzzed, error) {
	return NotFuzzed{B: binary.LittleEndian.Uint64(b)}, nil
}

// Registered has all three legs: encoder, decoder, corpus entry.
type Registered struct {
	C uint64
}

func (m Registered) AppendTo(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, m.C)
}

func DecodeRegistered(b []byte) (Registered, error) {
	return Registered{C: binary.LittleEndian.Uint64(b)}, nil
}

// IntoOnly's one decoder is a DecodeInto method: also complete.
type IntoOnly struct {
	E uint64
}

func (m IntoOnly) AppendTo(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, m.E)
}

func (m *IntoOnly) DecodeInto(b []byte) error {
	m.E = binary.LittleEndian.Uint64(b)
	return nil
}

// TwoDecoders spells its format twice on the decode side.
type TwoDecoders struct { // want `TwoDecoders has two decoders`
	F uint64
}

func (m TwoDecoders) AppendTo(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, m.F)
}

func (m *TwoDecoders) DecodeInto(b []byte) error {
	m.F = binary.LittleEndian.Uint64(b)
	return nil
}

func DecodeTwoDecoders(b []byte) (TwoDecoders, error) {
	var m TwoDecoders
	return m, m.DecodeInto(b)
}

// plain is not a message: no AppendTo, no obligations.
type plain struct {
	D int
}

var _ = plain{}
