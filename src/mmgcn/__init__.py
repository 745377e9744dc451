"""Multi-modal multi-graph convolution networks for region-level forecasting.

The package exports nothing; import from its modules.  ``graphs`` builds the
modality graphs and Laplacian bases, ``data`` loads, synthesizes and windows
demand series, ``layers`` holds the forward/backward passes, ``regularization``
the group-lasso and tensor-normal penalties with flip-flop covariance updates,
``numerics`` the tensor-mode algebra, ``training`` the Adam loop and
checkpoints, ``metrics`` the evaluation/analysis tools, ``jsonio`` the JSON
reader and schema check, and ``cli`` the command-line entry point.
"""
