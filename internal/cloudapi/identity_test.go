package cloudapi_test

import (
	"context"
	"testing"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/core"
	"whowas/internal/faults"
	"whowas/internal/fetcher"
	"whowas/internal/scanner"
	"whowas/internal/websim"
)

// identityCloudConfig is the substrate for the acceptance gate: a
// two-region EC2-like cloud small enough to probe over real sockets.
func identityCloudConfig() cloudapi.SimConfig {
	return cloudapi.SimConfig{
		Name:      "identity-ec2",
		Kind:      websim.EC2Like,
		Days:      12,
		Seed:      91,
		BaseOctet: 54,
		Regions: []cloudapi.RegionConfig{
			{Name: "east", Prefixes22: 2, VPC22: 1},
			{Name: "south", Prefixes22: 1, VPC22: 0},
		},
		Population: cloudapi.PopulationConfig{
			TargetResponsive:     0.237,
			Growth:               0.033,
			SSHOnly:              0.259,
			HTTPOnly:             0.380,
			HTTPSOnly:            0.055,
			HTTPBoth:             0.306,
			HTTPFailRate:         0.006,
			DailyBackgroundChurn: 0.05,
			SingletonFrac:        0.788,
			SmallFrac:            0.208,
			MediumFrac:           0.0028,
			EphemeralFrac:        0.114,
			WebClusters:          250,
			VPCClusterShare:      0.27,
			RegisteredDNSShare:   0.55,
		},
	}
}

// identityCampaignConfig mirrors the chaos suite's resilient pipeline:
// retrying scanner and fetcher, keep-alives off so every GET maps to
// one dial, and the loss-ramp fault scenario injected client-side.
func identityCampaignConfig() core.CampaignConfig {
	return core.CampaignConfig{
		RoundDays: []int{0, 2, 4},
		Scanner: scanner.Config{
			Rate:         scanner.UnlimitedRate,
			Workers:      32,
			Timeout:      2 * time.Second,
			Attempts:     3,
			RetryBackoff: time.Microsecond,
		},
		Fetcher: fetcher.Config{
			Workers:      32,
			Timeout:      30 * time.Second,
			Attempts:     3,
			RetryBackoff: time.Microsecond,
		},
		Faults: &faults.Scenario{
			Name:             "loss-ramp",
			Seed:             7,
			DialLossPerMille: 150,
			FlapPerMille:     100,
			FlapPeriodDays:   4,
			FlapDownDays:     2,
			Episodes: []faults.Episode{
				faults.LossRamp(0, 10, 0, 350),
				faults.SlowNetwork(4, 6, 5),
			},
		},
	}
}

// runIdentityCampaign runs the fixed-seed chaos campaign over the
// given cloud and returns the store digest.
func runIdentityCampaign(t *testing.T, cloud cloudapi.Cloud) string {
	t.Helper()
	p, err := core.NewPlatformCloud(cloud)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := p.RunCampaign(ctx, identityCampaignConfig()); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	digest, err := p.Store.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// TestWireDigestIdentity is the boundary's acceptance gate: the same
// seeded campaign — same cloud config, same fault scenario — run
// in-process and against a live whowas-cloudd daemon must produce
// byte-identical store digests. Every transport-visible difference
// (dial outcomes, deadline semantics, page bytes, day scheduling)
// would surface here.
func TestWireDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("wire identity campaign skipped in -short mode")
	}

	inproc, err := cloudapi.NewInProcess(identityCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	local := runIdentityCampaign(t, inproc)

	backing, err := cloudapi.NewInProcess(identityCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := cloudapi.NewServer(backing, cloudapi.ServerConfig{DataListeners: 4})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client, err := cloudapi.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wire := runIdentityCampaign(t, client)

	if wire != local {
		t.Errorf("wire digest %s != in-process digest %s", wire, local)
	}
}
