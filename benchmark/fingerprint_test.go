package main

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	mmptcp "repro"
)

func hashOf(v any, skip ...string) string {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(v), skip...)
	return hex.EncodeToString(h.Sum(nil))
}

type inner struct {
	A int64
	B float64
}

type ordered struct {
	Count  int
	Name   string
	Flows  []inner
	Layers map[string]inner
	Echo   string
}

// reordered declares ordered's fields in another order.
type reordered struct {
	Echo   string
	Layers map[string]inner
	Flows  []inner
	Name   string
	Count  int
}

func TestFingerprintIgnoresFieldOrder(t *testing.T) {
	flows := []inner{{1, 0.5}, {2, 1.5}}
	a := ordered{Count: 3, Name: "x", Flows: flows, Layers: map[string]inner{"agg": {1, 2}, "core": {3, 4}}, Echo: "cfg"}
	b := reordered{Count: 3, Name: "x", Flows: flows, Layers: map[string]inner{"core": {3, 4}, "agg": {1, 2}}, Echo: "cfg"}
	if hashOf(a) != hashOf(b) {
		t.Error("the hash depends on field declaration or map insertion order")
	}
	if hashOf(&a) != hashOf(a) {
		t.Error("a pointer hashes differently from what it points to")
	}
}

func TestFingerprintSeesValues(t *testing.T) {
	base := ordered{Count: 3, Name: "x", Flows: []inner{{1, 0.5}}, Layers: map[string]inner{"agg": {1, 2}}}
	for name, change := range map[string]func(*ordered){
		"an int":          func(o *ordered) { o.Count++ },
		"a string":        func(o *ordered) { o.Name = "y" },
		"a slice element": func(o *ordered) { o.Flows = []inner{{1, 0.25}} },
		"a slice length":  func(o *ordered) { o.Flows = append(o.Flows, inner{}) },
		"a map value":     func(o *ordered) { o.Layers = map[string]inner{"agg": {1, 3}} },
		"a map key":       func(o *ordered) { o.Layers = map[string]inner{"edge": {1, 2}} },
	} {
		changed := base
		change(&changed)
		if hashOf(changed) == hashOf(base) {
			t.Errorf("changing %s left the hash unchanged", name)
		}
	}
	// Moving a value from one field to its neighbour must show.
	if hashOf(inner{A: 1}) == hashOf(inner{B: 1}) {
		t.Error("the hash ignores which field holds a value")
	}
	changed := base
	changed.Echo = "another config"
	if hashOf(changed, "Echo") != hashOf(base, "Echo") {
		t.Error("a skipped field changed the hash")
	}
}

func TestFingerprintSkipsConfigOnly(t *testing.T) {
	a := &mmptcp.Results{Events: 10, Spawned: 2}
	b := &mmptcp.Results{Events: 10, Spawned: 2}
	b.Config.Seed = 99
	if fingerprint([]*mmptcp.Results{a}) != fingerprint([]*mmptcp.Results{b}) {
		t.Error("the Config echo is part of the fingerprint")
	}
	b.Events++
	if fingerprint([]*mmptcp.Results{a}) == fingerprint([]*mmptcp.Results{b}) {
		t.Error("Events is not part of the fingerprint")
	}
}
