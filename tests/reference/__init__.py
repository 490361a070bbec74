"""Reference models kept outside the product as test oracles."""
