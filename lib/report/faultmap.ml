let event_grid ~trace ~defuse =
  (* grid.(bit).(cycle-1) *)
  let ram = Defuse.ram_size defuse in
  let cycles = Defuse.total_cycles defuse in
  let grid = Array.make_matrix (ram * 8) cycles ' ' in
  (* Mark def/use structure first. *)
  Array.iter
    (fun (c : Defuse.byte_class) ->
      let mark =
        match c.Defuse.kind with
        | Defuse.Experiment -> '.'
        | Defuse.Overwritten | Defuse.Dormant -> ' '
      in
      for bit_in_byte = 0 to 7 do
        let row = (c.Defuse.byte * 8) + bit_in_byte in
        for t = c.Defuse.t_start to c.Defuse.t_end do
          grid.(row).(t - 1) <- mark
        done
      done)
    (Defuse.classes defuse);
  (* Overlay access events. *)
  Trace.iter_byte_accesses trace (fun ~byte ~cycle ~kind ->
      let ch = match kind with Trace.Read -> 'R' | Trace.Write -> 'W' in
      for bit_in_byte = 0 to 7 do
        grid.((byte * 8) + bit_in_byte).(cycle - 1) <- ch
      done);
  grid

let render_grid ~cycles grid =
  let buf = Buffer.create 1024 in
  ignore cycles;
  Buffer.add_string buf "        cycle 1..\n";
  Array.iteri
    (fun row line ->
      Buffer.add_string buf (Printf.sprintf "bit %3d " row);
      Array.iter (Buffer.add_char buf) line;
      Buffer.add_char buf '\n')
    grid;
  Buffer.contents buf

let access_map ~trace ~defuse =
  render_grid ~cycles:(Defuse.total_cycles defuse) (event_grid ~trace ~defuse)

let access_map_golden (golden : Golden.t) =
  access_map ~trace:golden.Golden.trace ~defuse:golden.Golden.defuse

let outcome_map (golden : Golden.t) scan =
  let trace = golden.Golden.trace and defuse = golden.Golden.defuse in
  let grid = event_grid ~trace ~defuse in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  let cycles = Defuse.total_cycles defuse in
  Array.iteri
    (fun row line ->
      for t = 0 to cycles - 1 do
        match line.(t) with
        | '.' ->
            let outcome =
              Faultspace.outcome_at cell scan { Faultspace.cycle = t + 1; bit = row }
            in
            line.(t) <- (if Outcome.is_failure outcome then 'X' else 'o')
        | 'R' | 'W' | ' ' | _ -> ()
      done)
    grid;
  render_grid ~cycles grid

let legend =
  "R/W: read/write of the byte at that cycle; '.': experiment coordinate\n\
   (def/use class ending in a read); ' ': a-priori benign (overwritten or\n\
   dormant); 'X': experiment failed; 'o': experiment benign.\n"
