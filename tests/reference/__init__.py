"""Deliberately simple reference implementations the suites diff against."""
