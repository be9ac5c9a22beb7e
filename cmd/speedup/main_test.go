package main

import "testing"

func TestRunDefaults(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustom(t *testing.T) {
	if err := run([]string{"-txs", "16", "-single", "0.875", "-group", "0.5625", "-cores", "8,16", "-k", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-cores", "eight"}); err == nil {
		t.Fatal("bad cores accepted")
	}
	if err := run([]string{"-single", "1.5"}); err == nil {
		t.Fatal("out-of-domain rate accepted")
	}
}

func TestRunOpLevelColumn(t *testing.T) {
	if err := run([]string{"-txs", "120", "-single", "0.9", "-group", "0.8", "-groupop", "0.04", "-cores", "8,64"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-groupop", "1.5"}); err == nil {
		t.Fatal("out-of-domain op-level rate accepted")
	}
}

func TestRunShardedColumn(t *testing.T) {
	if err := run([]string{"-txs", "100", "-single", "0.3", "-shards", "4", "-cross", "0.8", "-abort", "0.2", "-cores", "8,64"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-shards", "4", "-cross", "1.5"}); err == nil {
		t.Fatal("out-of-domain cross fraction accepted")
	}
	if err := run([]string{"-shards", "4", "-abort", "-0.1"}); err == nil {
		t.Fatal("out-of-domain abort rate accepted")
	}
}
