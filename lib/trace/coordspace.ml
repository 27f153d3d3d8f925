type coord = { cycle : int; bit : int }
