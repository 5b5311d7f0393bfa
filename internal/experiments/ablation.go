package experiments

import (
	"fmt"
	"sort"
	"strings"

	"whowas/internal/cloudapi"
	"whowas/internal/cluster"
	"whowas/internal/core"
)

// ClusteringAccuracy evaluates the §5 clustering against the
// simulator's ground truth — an evaluation the paper could not run on
// the real clouds, where true service boundaries are unknown. For
// every final cluster it computes purity (the share of members whose
// ground-truth service matches the cluster's majority service),
// and for every web service the number of clusters its observations
// were split across.
func (s *Suite) ClusteringAccuracy() string {
	var sb strings.Builder
	for _, pc := range []struct {
		p     *core.Platform
		cloud string
	}{{s.EC2, "ec2"}, {s.Azure, "azure"}} {
		p := pc.p
		sim := cloudapi.Sim(p.Cloud)
		metas := p.Store.Metas()
		var puritySum float64
		var clusters int
		svcClusters := map[uint64]map[int64]bool{}
		for _, c := range p.Clusters.Clusters {
			counts := map[uint64]int{}
			for _, m := range c.Members {
				st := sim.StateAt(metas[m.Round].Day, m.IP)
				counts[st.ServiceID]++
				if st.ServiceID != 0 {
					if svcClusters[st.ServiceID] == nil {
						svcClusters[st.ServiceID] = map[int64]bool{}
					}
					svcClusters[st.ServiceID][c.ID] = true
				}
			}
			best := 0
			for _, n := range counts {
				if n > best {
					best = n
				}
			}
			puritySum += float64(best) / float64(len(c.Members))
			clusters++
		}
		oneCluster := 0
		var fragments []float64
		for _, set := range svcClusters {
			if len(set) == 1 {
				oneCluster++
			}
			fragments = append(fragments, float64(len(set)))
		}
		sort.Float64s(fragments)
		var fragSum float64
		for _, f := range fragments {
			fragSum += f
		}
		fmt.Fprintf(&sb, "Clustering accuracy (%s): purity %.3f over %d clusters; %d/%d services in one cluster (mean fragmentation %.2f)\n",
			pc.cloud, puritySum/float64(max(clusters, 1)), clusters,
			oneCluster, len(svcClusters), fragSum/float64(max(len(svcClusters), 1)))
	}
	return sb.String()
}

// AblationClustering re-runs the EC2 clustering under the design
// variants §5 discusses: fixed thresholds instead of the gap
// statistic, disabling the merge heuristic, and the "only using
// Analytics IDs" alternative goal.
func (s *Suite) AblationClustering() (string, error) {
	var sb strings.Builder
	st := s.EC2.Store

	runVariant := func(name string, cfg cluster.Config) error {
		res, err := cluster.Run(st, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "  %-28s threshold=%2d  L1=%d  L2=%d  final=%d  removed=%d\n",
			name, res.Threshold, res.TopLevel, res.SecondLevel, res.Final, len(res.RemovedClusters))
		return nil
	}

	sb.WriteString("Clustering ablation (ec2):\n")
	if err := runVariant("gap-statistic threshold", cluster.Config{Seed: 1}); err != nil {
		return "", err
	}
	for _, th := range []int{1, 3, 6, 12} {
		if err := runVariant(fmt.Sprintf("fixed threshold %d", th), cluster.Config{Threshold: th}); err != nil {
			return "", err
		}
	}
	// Merge heuristic disabled: distance 1 below any real revision gap
	// effectively never merges (MergeDistance cannot be 0 — it would
	// take the default — so compare at the minimum useful value).
	if err := runVariant("merge distance 1", cluster.Config{Threshold: 3, MergeDistance: 1}); err != nil {
		return "", err
	}
	if err := runVariant("no cleaning (cutoff 1e9)", cluster.Config{Threshold: 3, CleanMinAvgIPs: 1e9}); err != nil {
		return "", err
	}

	// GA-ID-only association, the paper's alternative goal: count how
	// many final clusters share a Google Analytics ID (related content
	// across distinct page families).
	byGA := map[string]int{}
	for _, c := range s.EC2.Clusters.Clusters {
		if c.AnalyticsID != "" {
			byGA[c.AnalyticsID]++
		}
	}
	multi := 0
	for _, n := range byGA {
		if n > 1 {
			multi++
		}
	}
	fmt.Fprintf(&sb, "  GA-ID-only view: %d distinct IDs across clusters, %d IDs spanning multiple clusters\n",
		len(byGA), multi)

	// Restore the platform's canonical clustering labels (the ablation
	// variants overwrote record.Cluster fields).
	if err := s.EC2.RunClustering(cluster.Config{}); err != nil {
		return "", err
	}
	return sb.String(), nil
}
