type t = {
  name : string;
  code : Isa.instr array;
  rom : bytes;
  ram_size : int;
  ram_init : (int * bytes) list;
  reg_init : (Isa.reg * int32) list;
  symbols : (string * int) list;
  data_symbols : (string * int) list;
}

let make ~name ~code ?(rom = Bytes.empty) ?(ram_init = []) ?(reg_init = [])
    ?(symbols = []) ?(data_symbols = []) ~ram_size () =
  if ram_size <= 0 then invalid_arg "Program.make: ram_size must be positive";
  let n = Array.length code in
  if n = 0 then invalid_arg "Program.make: empty code";
  Array.iteri
    (fun idx instr ->
      List.iter
        (fun t ->
          if t < 0 || t >= n then
            invalid_arg
              (Printf.sprintf
                 "Program.make(%s): instruction %d branches to %d, outside \
                  [0,%d)"
                 name idx t n))
        (Isa.branch_targets instr))
    code;
  List.iter
    (fun (off, data) ->
      if off < 0 || off + Bytes.length data > ram_size then
        invalid_arg
          (Printf.sprintf
             "Program.make(%s): ram_init chunk at %d (+%d) outside RAM of %d \
              bytes"
             name off (Bytes.length data) ram_size))
    ram_init;
  { name; code; rom; ram_size; ram_init; reg_init; symbols; data_symbols }

let code_length t = Array.length t.code
let find_data_symbol t name = List.assoc_opt name t.data_symbols

let initial_ram t =
  let ram = Bytes.make t.ram_size '\000' in
  List.iter
    (fun (off, data) -> Bytes.blit data 0 ram off (Bytes.length data))
    t.ram_init;
  ram

let pp_listing ppf t =
  let labels_at = Hashtbl.create 16 in
  List.iter
    (fun (name, idx) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt labels_at idx) in
      Hashtbl.replace labels_at idx (name :: existing))
    t.symbols;
  Format.fprintf ppf "@[<v>; program %s (%d instructions, %d bytes RAM)@,"
    t.name (Array.length t.code) t.ram_size;
  Array.iteri
    (fun idx instr ->
      (match Hashtbl.find_opt labels_at idx with
      | Some names -> List.iter (Format.fprintf ppf "%s:@,") (List.rev names)
      | None -> ());
      Format.fprintf ppf "  %4d  %a@," idx Isa.pp_instr instr)
    t.code;
  Format.fprintf ppf "@]"
