package jni

import (
	"fmt"
	"unicode/utf16"
)

// Modified UTF-8 is the encoding GetStringUTFChars hands to native code
// (JNI spec §3.3.x): like UTF-8, except U+0000 is encoded as the two-byte
// sequence 0xC0 0x80 and supplementary characters are encoded as CESU-8
// surrogate pairs (two three-byte sequences). Implementing it exactly keeps
// the UTFChars path honest about buffer sizes, which is what gets tagged or
// guarded.

// EncodeModifiedUTF8 converts UTF-16 code units to Java Modified UTF-8.
func EncodeModifiedUTF8(units []uint16) []byte {
	out := make([]byte, 0, len(units))
	for _, u := range units {
		switch {
		case u == 0:
			out = append(out, 0xC0, 0x80)
		case u < 0x80:
			out = append(out, byte(u))
		case u < 0x800:
			out = append(out, 0xC0|byte(u>>6), 0x80|byte(u&0x3F))
		default:
			// Includes unpaired and paired surrogates: CESU-8 encodes each
			// UTF-16 unit independently as a three-byte sequence.
			out = append(out, 0xE0|byte(u>>12), 0x80|byte(u>>6&0x3F), 0x80|byte(u&0x3F))
		}
	}
	return out
}

// DecodeModifiedUTF8 converts Java Modified UTF-8 back to UTF-16 units.
func DecodeModifiedUTF8(b []byte) ([]uint16, error) {
	var units []uint16
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c < 0x80:
			units = append(units, uint16(c))
			i++
		case c&0xE0 == 0xC0:
			if i+1 >= len(b) || b[i+1]&0xC0 != 0x80 {
				return nil, fmt.Errorf("jni: truncated 2-byte sequence at %d", i)
			}
			units = append(units, uint16(c&0x1F)<<6|uint16(b[i+1]&0x3F))
			i += 2
		case c&0xF0 == 0xE0:
			if i+2 >= len(b) || b[i+1]&0xC0 != 0x80 || b[i+2]&0xC0 != 0x80 {
				return nil, fmt.Errorf("jni: truncated 3-byte sequence at %d", i)
			}
			units = append(units, uint16(c&0x0F)<<12|uint16(b[i+1]&0x3F)<<6|uint16(b[i+2]&0x3F))
			i += 3
		default:
			return nil, fmt.Errorf("jni: invalid modified-UTF-8 byte 0x%02x at %d", c, i)
		}
	}
	return units, nil
}

// StringFromModifiedUTF8 decodes Modified UTF-8 into a Go string.
func StringFromModifiedUTF8(b []byte) (string, error) {
	units, err := DecodeModifiedUTF8(b)
	if err != nil {
		return "", err
	}
	return string(utf16.Decode(units)), nil
}
