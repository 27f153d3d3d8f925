let render ?(width = 48) ?(unit_label = "") series =
  let label_width =
    List.fold_left (fun m (l, _) -> Stdlib.max m (String.length l)) 0 series
  in
  let peak = List.fold_left (fun m (_, v) -> Float.max m v) 0.0 series in
  let buf = Buffer.create 512 in
  List.iter
    (fun (label, value) ->
      let bar_len =
        if peak <= 0.0 then 0
        else int_of_float (Float.round (float_of_int width *. value /. peak))
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%-*s %g%s\n" label_width label width
           (String.make bar_len '#')
           value unit_label))
    series;
  Buffer.contents buf
