// Package types provides the primitive value types shared by every other
// package in txconcur: transaction hashes, account addresses, and the
// deterministic hashing helpers used to derive them.
//
// The types are deliberately tiny value types (fixed-size arrays) so they can
// be used as map keys throughout the dependency-graph code without
// allocation.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// HashSize is the size of a transaction or block hash in bytes.
const HashSize = 32

// AddressSize is the size of an account address in bytes (Ethereum-style,
// 160 bits).
const AddressSize = 20

// Hash is a 256-bit identifier for transactions and blocks.
type Hash [HashSize]byte

// Address identifies an account (externally owned or contract) in the
// account-based data model.
type Address [AddressSize]byte

// ZeroHash is the all-zero hash. It is used as the "null" sender of coinbase
// transactions, mirroring the null address in the paper's Figure 1.
var ZeroHash Hash

// ZeroAddress is the all-zero address, used as the coinbase sender ("null"
// node in the paper's TDG figures).
var ZeroAddress Address

// HashData returns the SHA-256 hash of the concatenation of the given byte
// slices.
func HashData(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// HashUint64 returns a hash deterministically derived from a domain tag and
// a sequence of integers. The workload generators use it to mint unique
// transaction hashes without tracking nonces.
func HashUint64(tag string, vs ...uint64) Hash {
	buf := make([]byte, 0, len(tag)+8*len(vs))
	buf = append(buf, tag...)
	var tmp [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	return HashData(buf)
}

// AddressFromUint64 derives a deterministic address from a domain tag and an
// index. Two distinct (tag, index) pairs yield distinct addresses with
// overwhelming probability.
func AddressFromUint64(tag string, v uint64) Address {
	h := HashUint64(tag, v)
	var a Address
	copy(a[:], h[HashSize-AddressSize:])
	return a
}

// String returns the full hex encoding of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the first four hex digits of the hash, the notation used in
// the paper's Figure 6.
func (h Hash) Short() string { return hex.EncodeToString(h[:2]) }

// IsZero reports whether the hash is the zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Bytes returns a fresh copy of the hash contents.
func (h Hash) Bytes() []byte {
	out := make([]byte, HashSize)
	copy(out, h[:])
	return out
}

// String returns the 0x-prefixed hex encoding of the address, the notation
// used by Ethereum block explorers and the paper's Figure 1.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// Short returns "0x" plus the first three hex digits, matching the labels in
// the paper's Figure 1 (e.g. "0x2a6").
func (a Address) Short() string { return "0x" + hex.EncodeToString(a[:2])[:3] }

// IsZero reports whether the address is the zero (coinbase/null) address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Bytes returns a fresh copy of the address contents.
func (a Address) Bytes() []byte {
	out := make([]byte, AddressSize)
	copy(out, a[:])
	return out
}

// MarshalJSON encodes the hash as a hex string.
func (h Hash) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON decodes a hex string (with or without 0x prefix).
func (h *Hash) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("types: hash: %w", err)
	}
	parsed, err := ParseHash(s)
	if err != nil {
		return err
	}
	*h = parsed
	return nil
}

// MarshalJSON encodes the address as a 0x-prefixed hex string.
func (a Address) MarshalJSON() ([]byte, error) {
	return []byte(`"` + a.String() + `"`), nil
}

// UnmarshalJSON decodes a hex string (with or without 0x prefix).
func (a *Address) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("types: address: %w", err)
	}
	parsed, err := ParseAddress(s)
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// ErrBadHexLength reports a hex string whose decoded length does not match
// the target type.
var ErrBadHexLength = errors.New("types: hex string has wrong length")

// ParseHash decodes a hex string (with or without 0x prefix) into a Hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := parseHex(s, HashSize)
	if err != nil {
		return h, fmt.Errorf("parse hash: %w", err)
	}
	copy(h[:], b)
	return h, nil
}

// ParseAddress decodes a hex string (with or without 0x prefix) into an
// Address.
func ParseAddress(s string) (Address, error) {
	var a Address
	b, err := parseHex(s, AddressSize)
	if err != nil {
		return a, fmt.Errorf("parse address: %w", err)
	}
	copy(a[:], b)
	return a, nil
}

func parseHex(s string, want int) ([]byte, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(b) != want {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBadHexLength, len(b), want)
	}
	return b, nil
}
