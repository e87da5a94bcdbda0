package core

import "testing"

func TestScalabilityScenarios(t *testing.T) {
	sc := ScalabilityScenarios()
	if len(sc) != 7 { // 2,4,8,16,32,64,128
		t.Fatalf("%d scenarios", len(sc))
	}
	if sc[0].Cores != 2 || sc[0].Threads != 4 {
		t.Fatalf("first scenario %+v", sc[0])
	}
	if sc[len(sc)-1].Cores != 128 || sc[len(sc)-1].Threads != 256 {
		t.Fatalf("last scenario %+v", sc[len(sc)-1])
	}
}
