"""Static analysis and audit toolkit for spreadsheet workbooks.

Loads workbooks from a JSON interchange format, parses their formulas,
groups copies of one formula into copy classes, builds the cell dependency
graph, recomputes every formula from the inputs, and reports findings
across six quality criteria together with an error-probability estimate
driven by the unique-formula count.
"""

from .errors import (
    AddressParseError,
    DomainError,
    FormatError,
    IoError,
    LexError,
    ParseError,
    SheetSentryError,
    UnknownNodeError,
    ValidationError,
)
from .evaluate import (
    Engine,
    StalenessEntry,
    StalenessReport,
    evaluate_cell,
    recompute_workbook,
    staleness_report,
)
from .formula import (
    Binary,
    BoolLit,
    Call,
    FormulaAst,
    NumberLit,
    Range,
    RangeRef,
    Ref,
    Reference,
    TextLit,
    Token,
    TokenKind,
    Unary,
    collect_references,
    parse_formula,
    serialize_formula,
    tokenize,
)
from .graph import (
    CycleReport,
    DepGraph,
    ExternalLink,
    RangeNode,
    build_graph,
    to_dot,
    topo_order,
)
from .metrics import (
    Analysis,
    ErrorModel,
    ScriptMetrics,
    WorkbookMetrics,
    branch_count,
    compute_metrics,
    error_probability,
    formula_cost,
    recalc_cost,
    script_metrics,
)
from .normalize import (
    CopyClass,
    NormalizedFormula,
    copy_classes,
    normalize,
    unique_formula_count,
)
from .report import (
    AuditReport,
    audit_workbook,
    render_json,
    render_text,
    report_from_json,
    report_to_dict,
)
from .rules import (
    RULES,
    Category,
    Finding,
    RuleConfig,
    Severity,
    run_rules,
)
from .version import VERSION
from .workbook import (
    BLANK,
    CalcMode,
    Cell,
    CellAddress,
    CellValue,
    Manifest,
    ScriptModule,
    Sheet,
    ValueKind,
    Workbook,
    WorkbookSettings,
    formula_cells,
    load_workbook,
    parse_address,
    render_address,
)

__version__ = VERSION
