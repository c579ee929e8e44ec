"""Policy membranes for mobile agents.

Systems of named sites host migrating agents; each site's membrane
pairs trust knowledge about other sites with a policy (a label set, a
label multiset with omega counts, or a DFA over action orderings) and
rules on every incoming agent, either by its certified digest (trusted
origins) or by inspecting the code itself. Resident membranes extend the
scheme to the joint behaviour of everything running at a site, statically
or by spending a budget.
"""

from .core import (
    Act, Agent, Go, Judgment, Membrane, NIL, Nil, Par, Policy, PolicyRegime,
    Repl, Site, System, TrustLevel, coherent, normalize, par, threads,
    validate_system,
)
from .diagnostics import Diagnostic, Severity, SourceSpan
from .policy_set import SetPolicy, enforces_set, typecheck_set, wellformed_set
from .policy_multiset import (
    MultisetPolicy, OMEGA, ResidentRecord, enforces_multiset, infer_policy,
    join, subtract, typecheck_multiset, wellformed_multiset,
    wellformed_resident, wellformed_static,
)
from .policy_dfa import (
    Cre, Dfa, DfaPolicy, Eps, EPS, Seq, Shuffle, ShuffleClosure, Sym,
    accepts_from, complement, cre_of, enforces_dfa, intersect, is_empty,
    lang_member, minimize, satisfies_dfa, wellformed_dfa,
)
from .runtime import (
    Admission, Event, Finding, LocalAction, MembraneKind, Migration, Mode,
    Report, agent_traces, allows, judge, lts_step, run, step, verify_safety,
    verify_subject_reduction, wellformed,
)
from .syntax import (
    parse_agent, parse_dfa, parse_dfa_bundle, parse_system, parse_theta,
    render, render_dfa, render_theta,
)

__version__ = "0.1.0"
