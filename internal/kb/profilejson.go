package kb

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"cloudlens/internal/core"
)

// AppendProfileJSON appends p's JSON encoding to dst and returns the
// extended buffer. The bytes are exactly what encoding/json's Marshal
// produces for *Profile: the same field order with family omitted when
// zero, null for nil Services, Regions and PatternShares, PatternShares
// keys sorted as decimal strings ("10" before "2"), floats in the ES6
// number form encoding/json uses, and its default HTML-safe string
// escaping. FuzzAppendProfileJSON holds the two equal.
//
// encoding/json refuses a non-finite float; this encoder writes null for
// NaN and ±Inf instead, so the output stays valid JSON. Published profiles
// carry no such value, and because the snapshot fingerprint and every
// profile body are cut from this encoder's bytes, the two agree either way.
func AppendProfileJSON(dst []byte, p *Profile) []byte {
	dst = append(dst, `{"subscription":`...)
	dst = appendJSONString(dst, string(p.Subscription))
	dst = append(dst, `,"cloud":`...)
	dst = strconv.AppendInt(dst, int64(p.Cloud), 10)
	if p.Family != 0 {
		dst = append(dst, `,"family":`...)
		dst = strconv.AppendInt(dst, int64(p.Family), 10)
	}
	dst = append(dst, `,"services":`...)
	dst = appendJSONStrings(dst, p.Services)
	dst = append(dst, `,"regions":`...)
	dst = appendJSONStrings(dst, p.Regions)
	dst = append(dst, `,"vmsObserved":`...)
	dst = strconv.AppendInt(dst, int64(p.VMsObserved), 10)
	dst = append(dst, `,"snapshotVMs":`...)
	dst = strconv.AppendInt(dst, int64(p.SnapshotVMs), 10)
	dst = append(dst, `,"snapshotCores":`...)
	dst = strconv.AppendInt(dst, int64(p.SnapshotCores), 10)
	dst = append(dst, `,"medianLifetimeMin":`...)
	dst = AppendJSONFloat(dst, p.MedianLifetimeMin)
	dst = append(dst, `,"shortLivedShare":`...)
	dst = AppendJSONFloat(dst, p.ShortLivedShare)
	dst = append(dst, `,"patternShares":`...)
	dst = appendPatternShares(dst, p.PatternShares)
	dst = append(dst, `,"dominantPattern":`...)
	dst = strconv.AppendInt(dst, int64(p.DominantPattern), 10)
	dst = append(dst, `,"meanUtilization":`...)
	dst = AppendJSONFloat(dst, p.MeanUtilization)
	dst = append(dst, `,"regionAgnosticScore":`...)
	dst = AppendJSONFloat(dst, p.RegionAgnosticScore)
	dst = append(dst, `,"peakHourUTC":`...)
	dst = strconv.AppendInt(dst, int64(p.PeakHourUTC), 10)
	return append(dst, '}')
}

// AppendJSONFloat appends f as encoding/json writes a float64: 'f' format,
// or 'e' below 1e-6 and from 1e21 up with a one-digit negative exponent
// unpadded (e-7, not e-07). NaN and ±Inf are written as null.
func AppendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func appendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

// appendPatternShares writes the map with its keys in the order
// encoding/json sorts integer keys: as decimal strings.
func appendPatternShares(dst []byte, m map[core.Pattern]float64) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	var stack [16]core.Pattern
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: a profile holds a handful of patterns.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && decimalLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, int64(k), 10)
		dst = append(dst, `":`...)
		dst = AppendJSONFloat(dst, m[k])
	}
	return append(dst, '}')
}

// decimalLess orders two patterns by their decimal renderings.
func decimalLess(a, b core.Pattern) bool {
	var ab, bb [20]byte
	return bytes.Compare(strconv.AppendInt(ab[:0], int64(a), 10), strconv.AppendInt(bb[:0], int64(b), 10)) < 0
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes it with HTML
// escaping on: control characters, '"', '\\', '<', '>' and '&' escaped,
// invalid UTF-8 replaced by \ufffd, U+2028 and U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
