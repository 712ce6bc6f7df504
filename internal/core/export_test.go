package core

// ObsSources reports how many sources the cluster's obs registry holds.
func (c *Cluster) ObsSources() int { return c.metrics.Sources() }
