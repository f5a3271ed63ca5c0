"""RPR004 positive: incremental-context preprocess without frozen=."""

from repro.sat.preprocessing import preprocess


class IncrementalSearch:
    def setup(self, formula):
        # violation: elimination may resolve away assumption selectors
        return preprocess(formula)


class Session:
    def warm(self, formula):
        return preprocess(formula, deadline=None)  # violation
