//go:build race

package commands

import "bytes"

// poisoned is what the race build's PutBlock writes over a block: a read
// after give-back reads it, and the byte-identity tests see it.
var poisoned = bytes.Repeat([]byte{0xA5}, BlockSize)

func poison(b []byte) { copy(b, poisoned) }
