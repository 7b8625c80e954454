"""First-order predicate calculus with equality over finite structures."""

# Public name -> the submodule that defines it.  Each is imported on first
# access (PEP 562), so a conceptual graph loads neither the structures nor
# the parser, and a theory check does not load the graphs.
_EXPORTS = {
    **dict.fromkeys(
        ("ConceptNode", "ConceptualGraph", "RelationNode", "graph_to_sentence", "load_graph"), "graphs"
    ),
    **dict.fromkeys(("parse_formula", "parse_sentence"), "parser"),
    **dict.fromkeys(
        (
            "BuiltinFunction", "Interpretation", "RelationalStructure", "Theory", "check_theory",
            "enumerate_models", "holds", "load_structure", "load_theory", "satisfies",
        ),
        "structures",
    ),
    **dict.fromkeys(
        (
            "And", "Apply", "Atom", "Eq", "Exists", "Forall", "Formula", "Implies", "Lit", "Not",
            "Or", "Signature", "Term", "Var", "check_well_formed", "free_variables",
            "has_quantifier", "is_sentence", "to_text",
        ),
        "syntax",
    ),
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # through the import statement's machinery, which ``-X importtime`` logs;
    # ``importlib.import_module`` would load the submodule without a line
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
