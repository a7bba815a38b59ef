"""suvlint: determinism-aware static analysis for the SUV-TM simulator.

See DESIGN.md section 15 for the engine design, the rule catalogue and
the suppression policy. Run as `python3 tools/suvlint`.
"""
