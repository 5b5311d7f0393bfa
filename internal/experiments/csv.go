package experiments

import (
	"fmt"
	"strings"

	"whowas/internal/analysis"
	"whowas/internal/core"
	"whowas/internal/timeseries"
)

// FigureCSVs renders every figure's underlying data series as CSV, so
// the paper's plots can be regenerated with any plotting tool. Keys
// are file stems ("figure8-ec2", "figure16-ec2", ...).
func (s *Suite) FigureCSVs() map[string]string {
	out := map[string]string{}
	for _, pc := range []struct {
		p     *core.Platform
		cloud string
	}{{s.EC2, "ec2"}, {s.Azure, "azure"}} {
		p, cloud := pc.p, pc.cloud

		// Figure 8: usage time series.
		u := analysis.Usage(p.Store)
		var sb strings.Builder
		sb.WriteString("round,day,responsive,available,clusters\n")
		for i := range u.Days {
			fmt.Fprintf(&sb, "%d,%d,%.0f,%.0f,%.0f\n", i, u.Days[i],
				u.RespSeries[i], u.AvailSeries[i], u.ClusterSeries[i])
		}
		out["figure8-"+cloud] = sb.String()

		// Figure 9: churn series.
		churn := analysis.Churn(p.Store)
		sb.Reset()
		sb.WriteString("round,day,responsiveness_pct,availability_pct,cluster_pct,overall_pct\n")
		for _, pt := range churn.Points {
			fmt.Fprintf(&sb, "%d,%d,%.4f,%.4f,%.4f,%.4f\n", pt.Round, pt.Day,
				100*pt.Responsiveness, 100*pt.Availability, 100*pt.ClusterChange, 100*pt.Overall)
		}
		out["figure9-"+cloud] = sb.String()

		// Figure 10: cluster availability change.
		av := analysis.ClusterAvailability(p.Store, p.Clusters)
		out["figure10-"+cloud] = pointsCSV("round,change_pct", av.Points, 100)

		// Figure 12: IP uptime CDF.
		up := analysis.IPUptimes(p.Clusters)
		out["figure12-"+cloud] = pointsCSV("uptime_pct,cdf", up.CDF.Points(), 1)

		// Figure 16: malicious lifetime CDFs.
		sbStudy := analysis.SafeBrowsing(p.Store, s.feeds[p].SafeBrowsing)
		sb.Reset()
		sb.WriteString("lifetime_days,cdf_all,cdf_classic,cdf_vpc\n")
		for d := 1; d <= p.Cloud.Days(); d++ {
			fmt.Fprintf(&sb, "%d,%.4f,%.4f,%.4f\n", d,
				sbStudy.LifetimeAll.At(float64(d)),
				sbStudy.LifetimeClassic.At(float64(d)),
				sbStudy.LifetimeVPC.At(float64(d)))
		}
		out["figure16-"+cloud] = sb.String()
	}

	// Figures 13/14 are EC2-only.
	v := analysis.VPCUsage(s.EC2.Store)
	var sb strings.Builder
	sb.WriteString("round,classic_responsive,classic_available,vpc_responsive,vpc_available\n")
	for i, r := range v.Rounds {
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d\n", r,
			v.ClassicResponsive[i], v.ClassicAvailable[i], v.VPCResponsive[i], v.VPCAvailable[i])
	}
	out["figure13-ec2"] = sb.String()

	vc := analysis.VPCClusters(s.EC2.Store, s.EC2.Clusters)
	sb.Reset()
	sb.WriteString("round,classic_only,vpc_only,mixed\n")
	for i, r := range vc.Rounds {
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", r, vc.ClassicOnly[i], vc.VPCOnly[i], vc.Mixed[i])
	}
	out["figure14-ec2"] = sb.String()

	// Figure 19: detection lag CDFs by behaviour type.
	study := s.vtStudy(s.EC2)
	sb.Reset()
	sb.WriteString("days,lag_type1,lag_type2,lag_type3,tail_type1,tail_type2,tail_type3\n")
	at := func(c *timeseries.CDF, d int) float64 {
		if c == nil {
			return 0
		}
		return c.At(float64(d))
	}
	for d := 0; d <= 40; d++ {
		fmt.Fprintf(&sb, "%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n", d,
			at(study.LagCDF[analysis.Type1], d), at(study.LagCDF[analysis.Type2], d), at(study.LagCDF[analysis.Type3], d),
			at(study.TailCDF[analysis.Type1], d), at(study.TailCDF[analysis.Type2], d), at(study.TailCDF[analysis.Type3], d))
	}
	out["figure19-ec2"] = sb.String()
	return out
}

func pointsCSV(header string, pts []timeseries.Point, yScale float64) string {
	var sb strings.Builder
	sb.WriteString(header + "\n")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%.4f,%.4f\n", p.X, yScale*p.Y)
	}
	return sb.String()
}
