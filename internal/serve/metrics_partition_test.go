package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestRequestOutcomeFieldsReconcile verifies at run time what the wbcheck
// metricpart pass verifies statically: requestOutcomeFields names exactly
// the atomic.Int64 outcome counters of Metrics, and the Responses snapshot
// carries one field per registered outcome — nothing missing, nothing
// extra. A drift here means /metrics sums would stop reconciling with
// requests_total.
func TestRequestOutcomeFieldsReconcile(t *testing.T) {
	checkOutcomePartition(t, requestOutcomeFields, "requestOutcomeFields", "Responses", reflect.TypeOf(metricsSnapshot{}))
}

// TestCacheOutcomeFieldsReconcile is the same three-way check for the
// cache_lookups_total partition: cacheOutcomeFields, the Metrics counters,
// and the Cache.CacheOutcomes snapshot block must agree exactly.
func TestCacheOutcomeFieldsReconcile(t *testing.T) {
	cacheField, ok := reflect.TypeOf(metricsSnapshot{}).FieldByName("Cache")
	if !ok {
		t.Fatal("metricsSnapshot has no Cache field")
	}
	checkOutcomePartition(t, cacheOutcomeFields, "cacheOutcomeFields", "CacheOutcomes", cacheField.Type)
}

// TestCascadeOutcomeFieldsReconcile is the same three-way check for the
// cascade_requests_total partition: cascadeOutcomeFields, the Metrics
// counters, and the Cascade.CascadeTiers snapshot block must agree exactly.
func TestCascadeOutcomeFieldsReconcile(t *testing.T) {
	cascadeField, ok := reflect.TypeOf(metricsSnapshot{}).FieldByName("Cascade")
	if !ok {
		t.Fatal("metricsSnapshot has no Cascade field")
	}
	checkOutcomePartition(t, cascadeOutcomeFields, "cascadeOutcomeFields", "CascadeTiers", cascadeField.Type)
}

// checkOutcomePartition verifies one partition registry: every registered
// name is an atomic.Int64 Metrics field, and the named snapshot struct
// carries exactly one field per registered outcome.
func checkOutcomePartition(t *testing.T, registry []string, registryName, snapshotField string, container reflect.Type) {
	t.Helper()
	atomicInt64 := reflect.TypeOf(atomic.Int64{})
	metricsType := reflect.TypeOf(Metrics{})

	registered := map[string]bool{}
	for _, name := range registry {
		if registered[name] {
			t.Errorf("%s lists %s twice", registryName, name)
		}
		registered[name] = true
		field, ok := metricsType.FieldByName(name)
		if !ok {
			t.Errorf("%s entry %s is not a Metrics field", registryName, name)
			continue
		}
		if field.Type != atomicInt64 {
			t.Errorf("Metrics.%s is %v, want atomic.Int64", name, field.Type)
		}
	}

	outcomes, ok := container.FieldByName(snapshotField)
	if !ok {
		t.Fatalf("snapshot has no %s field", snapshotField)
	}
	seen := map[string]bool{}
	for i := 0; i < outcomes.Type.NumField(); i++ {
		name := outcomes.Type.Field(i).Name
		seen[name] = true
		if !registered[name] {
			t.Errorf("%s snapshot field %s is not in %s", snapshotField, name, registryName)
		}
	}
	for name := range registered {
		if !seen[name] {
			t.Errorf("registered outcome %s is missing from the %s snapshot", name, snapshotField)
		}
	}
}

// TestMetricsZeroDocumentGolden pins the /metrics document of a fresh
// one-replica server byte for byte: key names, nesting, order and bucket
// bounds. Scrapers (bench/wbload fails a run on a missing key) read these
// keys, so a rename must show up here, in tier-1, first.
func TestMetricsZeroDocumentGolden(t *testing.T) {
	srv := NewFromPool(PoolOf(&okReplica{}), Config{})
	defer srv.BeginShutdown()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics_zero.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("/metrics zero document changed (update testdata/metrics_zero.golden.json and CHANGES.md if intended):\n%s", got)
	}
}
