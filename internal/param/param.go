// Package param is the one reader and writer of the key=value
// parameter lists that scenario specs carry: fault plans
// ("drop=0.3;migfail=0.1"), synth: workloads, contention overrides and
// fleet arrival processes. Each grammar is a table of key → field over
// Parse, so all four share one rule for separators, spaces and
// non-finite numbers, and one number format (Float) in their canonical
// names.
package param

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxInt bounds the *int targets: every integer up to 2^53 is exactly
// representable as a float64, so an integral value within it converts
// without loss.
const maxInt = 1 << 53

// Parse reads the sep-separated key=value items of list into targets,
// keyed by parameter name. A target is a *float64 (finite values only),
// an *int (integral values only, written in any float form: "2",
// "2.0", "2e0") or a *uint64 (decimal). Items, keys and values are
// trimmed of surrounding spaces and empty items are skipped, so ""
// sets nothing. A missing '=', an unknown key or a value its target
// cannot hold is an error. A repeated key keeps its last value.
func Parse(list, sep string, targets map[string]any) error {
	for _, item := range strings.Split(list, sep) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("parameter %q malformed (want key=value)", item)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch t := targets[k].(type) {
		case *float64:
			f, err := finite(k, v)
			if err != nil {
				return err
			}
			*t = f
		case *int:
			f, err := finite(k, v)
			if err != nil {
				return err
			}
			if math.Trunc(f) != f || math.Abs(f) > maxInt { //sbvet:allow floateq(integrality test on a parsed literal, not a computed value)
				return fmt.Errorf("parameter %s=%s is not an integer", k, v)
			}
			*t = int(f)
		case *uint64:
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("parameter %s=%s is not an unsigned integer", k, v)
			}
			*t = u
		case nil:
			return fmt.Errorf("unknown parameter %q", k)
		default:
			return fmt.Errorf("parameter %q has unsupported target %T", k, t)
		}
	}
	return nil
}

// finite parses v as a finite float64. strconv.ParseFloat also accepts
// NaN and the infinities, which slip past range checks (NaN compares
// false against every bound) or never end a computation (an infinite
// rate), so they are refused here, once for every grammar.
func finite(k, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%s is not a number", k, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("parameter %s=%s is not a finite number", k, v)
	}
	return f, nil
}

// Float renders v in its shortest exact form, the number format of
// every canonical spec: Parse reads it back to the identical value.
func Float(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
