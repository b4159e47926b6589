package workload_test

import (
	"testing"

	"github.com/lpd-epfl/mvtl/internal/wiretest"
)

func TestMain(m *testing.M) { wiretest.Main(m) }
