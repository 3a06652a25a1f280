package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"

	mmptcp "repro"
)

// fingerprint is a canonical hash of what a run measured: every field of
// every Results (flow records, summaries, layer stats, routing and shard
// counters, Events, Elapsed) except the Config echo. Results holds no
// wall-clock field today; one added later must be excluded here by name.
//
// Canonical means the hash depends on field names and values only: struct
// fields are visited in name order and map entries in key order, so
// reordering declarations in the simulator does not change it, while
// renaming, adding or removing a field does.
func fingerprint(results []*mmptcp.Results) string {
	h := sha256.New()
	for _, r := range results {
		hashValue(h, reflect.ValueOf(r), "Config")
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// hashValue feeds v into h. skip names top-level struct fields to leave out.
func hashValue(h hash.Hash, v reflect.Value, skip ...string) {
	var word [8]byte
	put := func(tag byte, x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write([]byte{tag})
		h.Write(word[:])
	}
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			put('0', 0)
			return
		}
		hashValue(h, v.Elem(), skip...)
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			names = append(names, t.Field(i).Name)
		}
		sort.Strings(names)
	fields:
		for _, name := range names {
			for _, s := range skip {
				if s == name {
					continue fields
				}
			}
			put('f', uint64(len(name)))
			h.Write([]byte(name))
			hashValue(h, v.FieldByName(name))
		}
		put('e', 0)
	case reflect.Slice, reflect.Array:
		put('l', uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		put('m', uint64(len(keys)))
		for _, k := range keys {
			hashValue(h, k)
			hashValue(h, v.MapIndex(k))
		}
	case reflect.Bool:
		if v.Bool() {
			put('b', 1)
		} else {
			put('b', 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put('i', uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put('u', v.Uint())
	case reflect.Float32, reflect.Float64:
		put('d', math.Float64bits(v.Float()))
	case reflect.String:
		put('s', uint64(v.Len()))
		h.Write([]byte(v.String()))
	default:
		// Funcs and channels carry no measurement; a Results that grows one
		// should not silently hash its address.
		panic(fmt.Sprintf("fingerprint: unsupported kind %s", v.Kind()))
	}
}
