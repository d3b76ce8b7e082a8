"""Static analysis and audit toolkit for spreadsheet workbooks.

Loads workbooks from a JSON interchange format, parses their formulas,
groups copies of one formula into copy classes, builds the cell dependency
graph, recomputes every formula from the inputs, and reports findings
across six quality criteria together with an error-probability estimate
driven by the unique-formula count.

Importing the package loads none of that: each name exported here imports
its module on first use (PEP 562), so a command or a caller pays only for
the modules it reads.
"""

from importlib import import_module

from .version import VERSION as __version__

# Each exported name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "AddressParseError DomainError FormatError IoError LexError ParseError"
        " SheetSentryError UnknownNodeError ValidationError",
        "evaluate": "Engine StalenessEntry StalenessReport recompute_workbook staleness_report",
        "formula": "Binary BoolLit Call FormulaAst NumberLit Range RangeRef Ref Reference TextLit"
        " Token TokenKind Unary collect_references parse_formula serialize_formula tokenize",
        "graph": "CycleReport DepGraph ExternalLink RangeNode build_graph to_dot topo_order",
        "metrics": "Analysis ScriptMetrics WorkbookMetrics compute_metrics error_probability"
        " formula_cost script_metrics",
        "normalize": "CopyClass copy_classes",
        "report": "AuditReport audit_workbook render_json render_text report_from_json"
        " report_to_dict",
        "rules": "RULES Category Finding RuleConfig Severity run_rules",
        "version": "VERSION",
        "workbook": "BLANK CalcMode Cell CellAddress CellValue Manifest ScriptModule Sheet"
        " ValueKind Workbook WorkbookSettings load_workbook parse_address",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS.values():
        # a submodule: importing it binds it in this namespace
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
