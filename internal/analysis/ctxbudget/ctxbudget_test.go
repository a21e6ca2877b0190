package ctxbudget

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

const (
	providerFixture = "repro/internal/analysis/testdata/src/ctxtest"
	consumerFixture = "repro/internal/analysis/testdata/src/ctxconsumer"
)

func TestProviderRules(t *testing.T) {
	Providers[providerFixture] = true
	defer delete(Providers, providerFixture)
	analysistest.Run(t, "../testdata/src/ctxtest", []*analysis.Analyzer{Analyzer}, nil)
}

func TestConsumerRule(t *testing.T) {
	Providers[providerFixture] = true
	Consumers[consumerFixture] = true
	defer delete(Providers, providerFixture)
	defer delete(Consumers, consumerFixture)
	analysistest.Run(t, "../testdata/src/ctxconsumer", []*analysis.Analyzer{Analyzer}, nil)
}

func TestRoleOf(t *testing.T) {
	if RoleOf("repro/internal/bipartite") != RoleProvider {
		t.Errorf("bipartite should be a provider")
	}
	if RoleOf("repro") != RoleProvider {
		t.Errorf("the anonrisk facade should be a provider")
	}
	if RoleOf("repro/internal/server") != RoleConsumer {
		t.Errorf("server should be a consumer")
	}
	if RoleOf("repro/internal/dataset") != RoleNone {
		t.Errorf("dataset should have no role")
	}
}
